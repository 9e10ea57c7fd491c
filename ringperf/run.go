package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/rings"
)

// A measured run is cut into setups sub-runs, each on a freshly built
// rig, and each sub-run's window into slicesPer equal time slices. The
// end-to-end figures are medians over all slices, so neither a burst
// that stalls the host for part of a run (CPU steal on a shared
// machine) nor the luck of one rig's thread placement moves the result.
const slicesPer = 2

// windowResult is what timed windows measured, slice by slice.
type windowResult struct {
	heapMB     float64
	goroutines int // generator goroutines a window started

	sliceDur  time.Duration
	lat       []*hist // per slice: round trips of the batches completed in it
	decisions []uint64
	cpu       []time.Duration

	batches, decided uint64 // over the whole windows, stragglers included
	errored, shed    uint64
	mismatched       uint64 // batches with at least one oracle mismatch
	sup              supResult
}

// supResult is what a supervisor edit stream measured, per slice of
// its time.
type supResult struct {
	mutate, visible []*hist
	lag             *hist
	edits, failed   uint64
	probes          uint64
}

func newHists(n int) []*hist {
	hs := make([]*hist, n)
	for i := range hs {
		hs[i] = newHist()
	}
	return hs
}

// add appends o's slices and counts to r.
func (r *windowResult) add(o *windowResult) {
	r.heapMB = max(r.heapMB, o.heapMB)
	r.goroutines = max(r.goroutines, o.goroutines)
	r.sliceDur = o.sliceDur
	r.lat = append(r.lat, o.lat...)
	r.decisions = append(r.decisions, o.decisions...)
	r.cpu = append(r.cpu, o.cpu...)
	r.batches += o.batches
	r.decided += o.decided
	r.errored += o.errored
	r.shed += o.shed
	r.mismatched += o.mismatched
	r.sup.mutate = append(r.sup.mutate, o.sup.mutate...)
	r.sup.visible = append(r.sup.visible, o.sup.visible...)
	if r.sup.lag == nil {
		r.sup.lag = newHist()
	}
	r.sup.lag.merge(o.sup.lag)
	r.sup.edits += o.sup.edits
	r.sup.failed += o.sup.failed
	r.sup.probes += o.sup.probes
}

// failedBatches counts every batch that failed: errored, shed or
// disagreeing with the oracle.
func (r *windowResult) failedBatches() uint64 { return r.errored + r.shed + r.mismatched }

// perSecond is the median over slices of decisions per second.
func (r *windowResult) perSecond() float64 {
	xs := make([]float64, len(r.decisions))
	for k := range xs {
		xs[k] = float64(r.decisions[k]) / r.sliceDur.Seconds()
	}
	return median(xs)
}

// cpuPerDecision is the median over slices of process CPU time per
// decision, in ns.
func (r *windowResult) cpuPerDecision() float64 {
	xs := make([]float64, len(r.decisions))
	for k := range xs {
		xs[k] = float64(r.cpu[k].Nanoseconds()) / float64(max(r.decisions[k], 1))
	}
	return median(xs)
}

// window runs the workload's clients closed-loop for d+e and measures
// the batches they complete in the first d, in slicesPer slices. The
// supervisor edit stream runs beside them: over the whole of d for a
// workload whose window carries edits, otherwise over the trailing e
// only, leaving the measured window edit-free while the edits still
// meet the workload's load. With spans set, every client call and
// supervisor edit is recorded.
func (r *rig) window(d, e time.Duration, seed int64, label string, spans *spanLog) *windowResult {
	w := r.w
	res := &windowResult{sliceDur: d / slicesPer,
		decisions: make([]uint64, slicesPer), cpu: make([]time.Duration, slicesPer)}
	hs := startHeapSampler(5 * time.Millisecond)
	cpu0 := cpuTime()
	start := time.Now()
	measured, stop := start.Add(d), start.Add(d+e)
	sliceOf := func(t time.Time) int {
		if t.After(measured) {
			return -1
		}
		return min(int(t.Sub(start)/res.sliceDur), slicesPer-1)
	}

	type clientOut struct {
		lat                                         []*hist
		decisions                                   []uint64
		batches, decided, errored, shed, mismatched uint64
	}
	outs := make([]clientOut, w.clients)
	var batchIDs atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < w.clients; i++ {
		wg.Add(1)
		res.goroutines++
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			o.lat, o.decisions = newHists(slicesPer), make([]uint64, slicesPer)
			g := NewGen(r.img, w.genConfig(seed), deriveSeed(seed, fmt.Sprintf("%s/client/%d", label, i)))
			dst := make([]service.Decision, w.gen.BatchMax)
			for {
				q := g.Next()
				mark := r.oracle.Mark()
				t0 := time.Now()
				err := r.check(i, q, dst)
				t1 := time.Now()
				if spans != nil {
					spans.add("e2e.check", "", batchIDs.Add(1), t0, t1)
				}
				o.batches++
				switch {
				case errors.Is(err, rings.ErrQueueFull):
					o.shed++
				case err != nil:
					o.errored++
				default:
					o.decided += uint64(len(q))
					if k := sliceOf(t1); k >= 0 {
						o.lat[k].add(t1.Sub(t0).Nanoseconds())
						o.decisions[k] += uint64(len(q))
					}
					if r.oracle.CheckBatch(mark, q, dst[:len(q)]) > 0 {
						o.mismatched++
					}
				}
				if t1.After(stop) {
					return
				}
			}
		}(i)
	}
	supFrom, supTo := measured, stop
	if w.editsInWindow {
		supFrom, supTo = start, measured
	}
	wg.Add(1)
	res.goroutines++
	go func() {
		defer wg.Done()
		res.sup = r.supervise(seed, label, supFrom, supTo, spans)
	}()
	// Read the process CPU clock at every slice boundary.
	cpuAt := make([]time.Duration, slicesPer+1)
	cpuAt[0] = cpu0
	for k := 1; k <= slicesPer; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * res.sliceDur)))
		cpuAt[k] = cpuTime()
	}
	wg.Wait()
	res.heapMB = hs.finish()
	for k := 0; k < slicesPer; k++ {
		res.cpu[k] = cpuAt[k+1] - cpuAt[k]
	}
	res.lat = newHists(slicesPer)
	for i := range outs {
		o := &outs[i]
		for k := 0; k < slicesPer; k++ {
			res.lat[k].merge(o.lat[k])
			res.decisions[k] += o.decisions[k]
		}
		res.batches += o.batches
		res.decided += o.decided
		res.errored += o.errored
		res.shed += o.shed
		res.mismatched += o.mismatched
	}
	return res
}

// probeTimeout bounds how long an acknowledged edit may stay invisible
// to the client before the edit counts as failed. It exceeds the lease
// cache's default TTL, the staleness bound the cache promises.
const probeTimeout = 3 * time.Second

// probeEvery is the pause between visibility probes.
const probeEvery = 10 * time.Microsecond

// pacerSpin is how long before an edit's due time the pacer stops
// sleeping and yields in a loop instead: the runtime rounds short
// sleeps up to a millisecond when no other goroutine is running.
const pacerSpin = 100 * time.Microsecond

// editRate is the supervisor's edit rate, per second.
const editRate = 200

// supervise runs the paced supervisor from from to to: one SetBrackets
// edit every 1/editRate seconds to a segment drawn from the workload's
// own query stream (so edits land on hot segments). Each edit is timed
// from its scheduled send to its acknowledgement; then a probe query on
// the edited segment is sent down client 0's path until a decision at
// or past the edit's epoch comes back, timed from the acknowledgement.
// Before each edit the probe is sent once, so a cached client holds a
// lease for it and the probe measures the invalidation, not a miss.
// Edits are filed in slicesPer slices of the interval by due time.
func (r *rig) supervise(seed int64, label string, from, to time.Time, spans *spanLog) supResult {
	res := supResult{mutate: newHists(slicesPer), visible: newHists(slicesPer), lag: newHist()}
	sliceDur := to.Sub(from) / slicesPer
	g := NewGen(r.img, r.w.genConfig(seed), deriveSeed(seed, label+"/supervisor"))
	rng := sm64{s: deriveSeed(seed, label+"/edits")}
	period := time.Second / editRate
	probe := make([]service.Query, 1)
	dst := make([]service.Decision, 1)
	sendProbe := func() (service.Decision, bool) {
		mark := r.oracle.Mark()
		res.probes++
		if err := r.check(0, probe, dst); err != nil {
			return service.Decision{}, false
		}
		if r.oracle.CheckBatch(mark, probe, dst) > 0 {
			return service.Decision{}, false
		}
		return dst[0], true
	}
	if wait := time.Until(from); wait > 0 {
		time.Sleep(wait)
	}
	for k := 0; ; k++ {
		due := from.Add(time.Duration(k) * period)
		if !due.Before(to) {
			break
		}
		segno := hotSegment(g)
		probe[0] = service.Query{Op: service.OpAccess, Ring: rng.ring(0), Segno: segno,
			Kind: core.AccessKind(rng.intn(3))}
		view := editView(&rng, r.oracle.View(segno))
		if _, ok := sendProbe(); !ok {
			res.failed++
			continue
		}
		if wait := time.Until(due); wait > pacerSpin {
			time.Sleep(wait - pacerSpin)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		sent := time.Now()
		res.lag.add(sent.Sub(due).Nanoseconds())
		epoch := r.oracle.Begin(segno, view)
		err := r.mutate(segno, view)
		acked := time.Now()
		r.oracle.Acked()
		res.edits++
		spans.add("sup.mutate", "", uint64(k), sent, acked)
		if err != nil {
			res.failed++
			continue
		}
		slice := min(int(due.Sub(from)/sliceDur), slicesPer-1)
		res.mutate[slice].add(acked.Sub(due).Nanoseconds())
		sh := r.oracle.shardOf(segno)
		for {
			d, ok := sendProbe()
			now := time.Now()
			if !ok || now.Sub(acked) > probeTimeout {
				res.failed++
				break
			}
			if d.Shard == sh && d.VersionLo >= epoch {
				res.visible[slice].add(now.Sub(acked).Nanoseconds())
				spans.add("sup.visible", "sup.mutate", uint64(k), acked, now)
				break
			}
			// Block between probes rather than spin: the goroutines that
			// carry the shootdown to the client need the processor.
			time.Sleep(probeEvery)
		}
	}
	return res
}

// hotSegment draws the next query of the workload's stream and returns
// the segment it names (the first indirect step of an effring chain).
func hotSegment(g *Gen) uint32 {
	for {
		q := &g.Next()[0]
		if q.Op != service.OpEffRing {
			return q.Segno
		}
		for _, st := range q.Chain {
			if !st.PR {
				return st.Segno
			}
		}
	}
}

// editView draws new flags and brackets for a segment, keeping its
// bound and gate count (SetBrackets never moves a segment).
func editView(r *sm64, old core.SDWView) core.SDWView {
	v := old
	f := r.intn(8)
	v.Read, v.Write, v.Execute = f&1 != 0, f&2 != 0, f&4 != 0
	v.Brackets = genBrackets(r, r.intn(numRelations))
	return v
}
