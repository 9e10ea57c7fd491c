package service

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// violationKinds is the number of distinct ViolationKind values.
const violationKinds = core.ViolationKindCount

// latencyBuckets is the number of power-of-two latency histogram
// buckets; bucket i counts batches whose admission-to-completion latency
// lay in [2^i, 2^(i+1)) nanoseconds.
const latencyBuckets = 32

// Counter indices into counters: decision outcomes, then queries per
// op, then snapshot reads and validations, then denials per violation
// kind — the counters a batch tallies — then the latency histogram.
// Batches and queries are not counted: Snapshot sums them from the
// histogram and the per-op counts.
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
	numTallied  = cFaults + violationKinds // the counters a tally holds
	cLatency    = numTallied               // latencyBuckets counters
	numCounters = cLatency + latencyBuckets
)

// counters is one decision slot's always-on instrumentation: decision
// counts, snapshot reads, validations, faults by kind, and a
// power-of-two batch-latency histogram. Only the caller holding the
// slot writes them, once per batch (add and observe), so they never
// bounce between cores; Snapshot sums every slot's counters, a
// monitoring-grade (not transactionally consistent) view.
type counters [numCounters]atomic.Uint64

// tally is one batch's counters in plain words: the slot holder counts
// each decision into it and adds it to the slot's counters when the
// batch ends, so deciding performs no atomic read-modify-write.
type tally [numTallied]uint64

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

// observe counts one completed batch in its admission-to-completion
// latency bucket.
//
//ring:hotpath
func (c *counters) observe(d time.Duration) {
	bucket := 0
	for v := d.Nanoseconds(); v > 1 && bucket < latencyBuckets-1; v >>= 1 {
		bucket++
	}
	c[cLatency+bucket].Add(1)
}

// add moves a finished batch's tally into c and clears it.
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
// counters.
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
