package main

import (
	"math/bits"
	"net"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a latency histogram in nanoseconds: exact below 1024 ns,
// then 512 log-linear sub-buckets per power of two (under 0.2%
// relative error), so quantiles carry all their digits without keeping
// every sample.
type hist struct {
	counts []uint32
	n      uint64
}

const (
	histExact = 1024
	histSub   = 512
)

func newHist() *hist { return &hist{counts: make([]uint32, histExact+55*histSub)} }

func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	shift := bits.Len64(v) - 10
	return histExact + (shift-1)*histSub + int(v>>shift) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histExact {
		return float64(i)
	}
	shift := (i-histExact)/histSub + 1
	lo := uint64((i-histExact)%histSub+histSub) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return histValue(i)
		}
	}
	return 0
}

// sliceQuantile is the median over the non-empty histograms of their
// q-quantiles: a tail that only a few slices of a run saw does not
// move it.
func sliceQuantile(hs []*hist, q float64) float64 {
	var xs []float64
	for _, h := range hs {
		if h.n > 0 {
			xs = append(xs, h.quantile(q))
		}
	}
	return median(xs)
}

// total merges histograms.
func total(hs []*hist) *hist {
	t := newHist()
	for _, h := range hs {
		t.merge(h)
	}
	return t
}

// median of a sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the highest heap-in-use (object bytes plus
// unused bytes in in-use spans) seen at each tick.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		v := samples[0].Value.Uint64() + samples[1].Value.Uint64()
		if v > hs.peak.Load() {
			hs.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(hs.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hs.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return hs
}

// finish stops the sampler and returns the peak in MiB.
func (hs *heapSampler) finish() float64 {
	close(hs.stop)
	<-hs.done
	return float64(hs.peak.Load()) / (1 << 20)
}

// countingListener counts the connections a server accepted: the
// connections the generator really opened.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

func listenLoopback() (*countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln}, nil
}

// spanLog keeps spans in memory, up to a cap; the traced run writes
// them out at exit.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

type span struct {
	name, parent string
	batch        uint64
	start, end   int64 // ns since the log's epoch
}

const maxSpans = 1 << 18

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<12)}
}

// add records one span; a nil log records nothing.
func (l *spanLog) add(name, parent string, batch uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{name: name, parent: parent, batch: batch,
			start: start.Sub(l.epoch).Nanoseconds(), end: end.Sub(l.epoch).Nanoseconds()})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}
