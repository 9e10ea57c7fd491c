package service

import (
	"math/bits"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// violationKinds is the number of distinct ViolationKind values.
const violationKinds = core.ViolationKindCount

// latencyBuckets is the number of power-of-two latency histogram
// buckets; bucket i counts batches whose admission-to-completion latency
// lay in [2^i, 2^(i+1)) nanoseconds.
const latencyBuckets = 32

// Counter indices into counters and tally: decision outcomes, then
// queries per op, then snapshot reads and validations, then denials per
// violation kind, then the latency histogram. Batches and queries are
// not counted: Snapshot sums them from the histogram and the per-op
// counts.
const (
	cAllowed = iota
	cDenied
	cErrors
	cTrapped
	cOpAccess
	cOpCall
	cOpReturn
	cOpEffRing
	cOpOther
	cPins                                  // snapshots pinned: one per consulted shard per batch
	cLookups                               // descriptor reads
	cValidates                             // read and write checks: the events map's "validate"
	cFaults                                // violationKinds counters
	cLatency    = cFaults + violationKinds // latencyBuckets counters
	numCounters = cLatency + latencyBuckets
)

// flushEvery is how many batches a slot's holders tally in plain words
// before the holder of the last one moves the tally into the slot's
// counters.
const flushEvery = 64

// counters is one decision slot's published instrumentation: decision
// counts, snapshot reads, validations, faults by kind, and a
// power-of-two batch-latency histogram. Only a holder of the slot
// writes them, when it flushes the slot's tally: every flushEvery-th
// batch, or in Snapshot when the slot is free. Snapshot sums every
// slot's counters, a monitoring-grade (not transactionally consistent)
// view. A slot that is busy during a scrape contributes only the
// batches it has already flushed, at most flushEvery-1 (63) behind, so
// every count is exact once the service is quiet and never goes down
// between scrapes.
type counters [numCounters]atomic.Uint64

// tally is a slot's unflushed counts in plain words: each holder counts
// its decisions and its batch's latency bucket into it, and taking and
// releasing the slot's busy flag orders successive holders, so deciding
// performs no atomic read-modify-write on the slot's counters except
// in the batch that flushes.
type tally [numCounters]uint64

// count tallies one decision.
//
//ring:hotpath
func (t *tally) count(op Op, d *Decision) {
	switch op {
	case OpAccess:
		t[cOpAccess]++
	case OpCall:
		t[cOpCall]++
	case OpReturn:
		t[cOpReturn]++
	case OpEffRing:
		t[cOpEffRing]++
	default:
		t[cOpOther]++
	}
	switch {
	case d.Err != "":
		t[cErrors]++
	case d.Allowed:
		t[cAllowed]++
		if d.Trapped {
			t[cTrapped]++
		}
	default:
		t[cDenied]++
		if k := int(d.ViolationKind); k >= 0 && k < violationKinds {
			t[cFaults+k]++
		}
	}
}

// latencyBucket is the histogram bucket of a v-nanosecond latency:
// floor(log2 v), capped at the last bucket; 0 for v below 2.
//
//ring:hotpath
func latencyBucket(v int64) int {
	if v < 1 {
		return 0
	}
	return min(latencyBuckets-1, bits.Len64(uint64(v))-1)
}

// add moves a tally into c and clears it.
//
//ring:hotpath
func (c *counters) add(t *tally) {
	for i, n := range t {
		if n != 0 {
			c[i].Add(n)
			t[i] = 0
		}
	}
}

// LatencyBucket is one non-empty histogram bucket.
type LatencyBucket struct {
	// LoNs and HiNs bound the bucket: [LoNs, HiNs) nanoseconds.
	LoNs  int64  `json:"lo_ns"`
	HiNs  int64  `json:"hi_ns"`
	Count uint64 `json:"count"`
}

// ReaderSnapshot reports one decision slot's snapshot-read counters: how
// many times it pinned a shard snapshot (once per consulted shard per
// batch) and how many descriptor lookups those pins served. A high
// Lookups/Pins ratio is the snapshot-era analogue of a high cache hit
// rate — many decisions amortized over one atomic pointer load.
type ReaderSnapshot struct {
	Pins    uint64 `json:"pins"`
	Lookups uint64 `json:"lookups"`
}

// Snapshot is one /metrics observation.
type Snapshot struct {
	// Workers is the number of decision slots; QueueLen counts callers
	// waiting for one, QueueCap how many may wait.
	Workers  int    `json:"workers"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Version  uint64 `json:"version"`
	Batches  uint64 `json:"batches"`
	Queries  uint64 `json:"queries"`
	Rejected uint64 `json:"rejected"`
	Allowed  uint64 `json:"allowed"`
	Denied   uint64 `json:"denied"`
	Errors   uint64 `json:"errors"`
	Trapped  uint64 `json:"trapped"`
	// Ops counts queries per operation.
	Ops map[string]uint64 `json:"ops"`
	// Faults counts denials per architectural violation kind.
	Faults map[string]uint64 `json:"faults"`
	// RCU reports the descriptor store's snapshot-publication
	// machinery: publishes, buffer reuse, reclamation, and current
	// retired/free list sizes (see rcu.go).
	RCU RCUSnapshot `json:"rcu"`
	// Reads sums the per-slot snapshot-read counters.
	Reads ReaderSnapshot `json:"reads"`
	// PerWorkerReads lists each decision slot's own counters.
	PerWorkerReads []ReaderSnapshot `json:"per_worker_reads"`
	// Events tallies validation events across all slots under the
	// trace event kind name "validate": one per read or write check,
	// an effring chain's indirect-word reads included. It is the only
	// kind the service records.
	Events map[string]uint64 `json:"events"`
	// LatencyNs is the non-empty part of the batch latency histogram.
	LatencyNs []LatencyBucket `json:"latency_ns"`
}

// metricKey normalizes a human-readable name into the snake_case key
// space the rest of /metrics uses, turning spaces and hyphens into
// underscores: core.ViolationKind strings carry spaces ("outside read
// bracket"), while every struct field marshals as snake_case. The map
// keys in Faults go through this so one /metrics document never mixes
// naming styles. Decision.Violation on the /v1/check wire keeps the
// human-readable form.
func metricKey(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '-':
			return '_'
		}
		return r
	}, s)
}

// Snapshot assembles the full /metrics view, summing the slots'
// counters. It first flushes the tally of every free slot, taking and
// releasing the slot as a caller does. It never waits for a held slot,
// which contributes only the batches it has already flushed: at most
// flushEvery-1 (63) behind.
func (s *Service) Snapshot() Snapshot {
	var sum [numCounters]uint64
	snap := Snapshot{
		Workers:  len(s.slots),
		QueueLen: int(s.waiting.Load()),
		QueueCap: s.cfg.QueueDepth,
		Version:  s.store.Version(),
		Rejected: s.rejected.Load(),
		RCU:      s.store.RCUStats(),
		Faults:   map[string]uint64{},
		Events:   map[string]uint64{},
	}
	for _, sl := range s.slots {
		if !sl.busy.Load() && sl.busy.CompareAndSwap(false, true) {
			sl.flush()
			sl.busy.Store(false)
			if s.waiting.Load() != 0 {
				s.wakeOne()
			}
		}
		var c [numCounters]uint64
		for i := range c {
			c[i] = sl.counts[i].Load()
			sum[i] += c[i]
		}
		st := ReaderSnapshot{Pins: c[cPins], Lookups: c[cLookups]}
		snap.Reads.Pins += st.Pins
		snap.Reads.Lookups += st.Lookups
		snap.PerWorkerReads = append(snap.PerWorkerReads, st)
	}
	snap.Allowed, snap.Denied = sum[cAllowed], sum[cDenied]
	snap.Errors, snap.Trapped = sum[cErrors], sum[cTrapped]
	snap.Ops = map[string]uint64{
		string(OpAccess):  sum[cOpAccess],
		string(OpCall):    sum[cOpCall],
		string(OpReturn):  sum[cOpReturn],
		string(OpEffRing): sum[cOpEffRing],
	}
	if n := sum[cOpOther]; n > 0 {
		snap.Ops["other"] = n
	}
	for i := cOpAccess; i <= cOpOther; i++ {
		snap.Queries += sum[i]
	}
	for k := 0; k < violationKinds; k++ {
		if n := sum[cFaults+k]; n > 0 {
			snap.Faults[metricKey(core.ViolationKind(k).String())] = n
		}
	}
	if n := sum[cValidates]; n > 0 {
		snap.Events["validate"] = n
	}
	for i := 0; i < latencyBuckets; i++ {
		if n := sum[cLatency+i]; n > 0 {
			snap.Batches += n
			lo := int64(1) << i
			if i == 0 {
				lo = 0
			}
			snap.LatencyNs = append(snap.LatencyNs, LatencyBucket{
				LoNs: lo, HiNs: int64(1) << (i + 1), Count: n,
			})
		}
	}
	return snap
}
