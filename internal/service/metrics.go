package service

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// violationKinds is the number of distinct ViolationKind values.
const violationKinds = core.ViolationKindCount

// latencyBuckets is the number of power-of-two latency histogram
// buckets; bucket i counts batches whose admission-to-completion latency
// lay in [2^i, 2^(i+1)) nanoseconds.
const latencyBuckets = 32

// Counter indices into counters: decision outcomes, then queries per
// op, then denials per violation kind, then the latency histogram.
const (
	cBatches = iota
	cQueries
	cAllowed
	cDenied
	cErrors
	cTrapped
	cOpAccess
	cOpCall
	cOpReturn
	cOpEffRing
	cOpOther
	cFaults                                // violationKinds counters
	cLatency    = cFaults + violationKinds // latencyBuckets counters
	numCounters = cLatency + latencyBuckets
)

// counters is one decision slot's always-on instrumentation: decision
// counts, faults by kind, and a power-of-two batch-latency histogram.
// Only the caller holding the slot writes them, so they never bounce
// between cores; Snapshot sums every slot's counters, a
// monitoring-grade (not transactionally consistent) view.
type counters [numCounters]atomic.Uint64

// count tallies one decision.
//
//ring:hotpath
func (c *counters) count(op Op, d *Decision) {
	c[cQueries].Add(1)
	switch op {
	case OpAccess:
		c[cOpAccess].Add(1)
	case OpCall:
		c[cOpCall].Add(1)
	case OpReturn:
		c[cOpReturn].Add(1)
	case OpEffRing:
		c[cOpEffRing].Add(1)
	default:
		c[cOpOther].Add(1)
	}
	switch {
	case d.Err != "":
		c[cErrors].Add(1)
	case d.Allowed:
		c[cAllowed].Add(1)
		if d.Trapped {
			c[cTrapped].Add(1)
		}
	default:
		c[cDenied].Add(1)
		if k := int(d.ViolationKind); k >= 0 && k < violationKinds {
			c[cFaults+k].Add(1)
		}
	}
}

// observe tallies one completed batch and its admission-to-completion
// latency.
//
//ring:hotpath
func (c *counters) observe(d time.Duration) {
	c[cBatches].Add(1)
	bucket := 0
	for v := d.Nanoseconds(); v > 1 && bucket < latencyBuckets-1; v >>= 1 {
		bucket++
	}
	c[cLatency+bucket].Add(1)
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
	// Events tallies trace events by kind across all slots, fed from
	// the zero-alloc mmu.Sink each slot's unit records into.
	Events map[string]uint64 `json:"events"`
	// LatencyNs is the non-empty part of the batch latency histogram.
	LatencyNs []LatencyBucket `json:"latency_ns"`
}

// metricKey normalizes a human-readable name into the snake_case key
// space the rest of /metrics uses: core.ViolationKind strings carry
// spaces ("outside read bracket") and trace.Kind strings hyphens
// ("ring-switch"), while every struct field marshals as snake_case.
// The map keys in Faults and Events go through this so one /metrics
// document never mixes naming styles. Decision.Violation on the
// /v1/check wire keeps the human-readable form.
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
// counters.
func (s *Service) Snapshot() Snapshot {
	var sum [numCounters]uint64
	var events [trace.KindCount]uint64
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
		for i := range sum {
			sum[i] += sl.counts[i].Load()
		}
		for k := range events {
			events[k] += sl.events.Of(trace.Kind(k))
		}
		st := ReaderSnapshot{Pins: sl.rd.pins.Load(), Lookups: sl.rd.lookups.Load()}
		snap.Reads.Pins += st.Pins
		snap.Reads.Lookups += st.Lookups
		snap.PerWorkerReads = append(snap.PerWorkerReads, st)
	}
	snap.Batches, snap.Queries = sum[cBatches], sum[cQueries]
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
	for k := 0; k < violationKinds; k++ {
		if n := sum[cFaults+k]; n > 0 {
			snap.Faults[metricKey(core.ViolationKind(k).String())] = n
		}
	}
	for k, n := range events {
		if n > 0 {
			snap.Events[metricKey(trace.Kind(k).String())] = n
		}
	}
	for i := 0; i < latencyBuckets; i++ {
		if n := sum[cLatency+i]; n > 0 {
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
