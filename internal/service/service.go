package service

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Op names a protection query kind.
type Op string

const (
	// OpAccess validates a read, write or instruction-fetch reference.
	OpAccess Op = "access"
	// OpCall evaluates the CALL decision of Figure 8: gate list, bracket
	// placement, and the resulting ring switch.
	OpCall Op = "call"
	// OpReturn evaluates the RETURN decision of Figure 9.
	OpReturn Op = "return"
	// OpEffRing computes the effective ring of an address chain per
	// Figure 5: the running max over pointer-register and indirect-word
	// contributions.
	OpEffRing Op = "effring"
)

// ChainStep is one contribution to effective-ring formation.
type ChainStep struct {
	// PR marks a pointer-register contribution (TPR.RING :=
	// max(TPR.RING, PRn.RING)); otherwise the step is an indirect-word
	// retrieval from the segment Segno, contributing both the indirect
	// word's ring field and the container's R1.
	PR    bool   `json:"pr,omitempty"`
	Ring  Ring   `json:"ring"`
	Segno uint32 `json:"segno,omitempty"`
}

// Ring aliases core.Ring for the wire types.
type Ring = core.Ring

// Query is one protection question. Over HTTP it travels as
// tenant.CheckQuery.
type Query struct {
	Op Op
	// Ring is the ring of execution (IPR.RING) for access/call/return,
	// the starting effective ring for effring.
	Ring Ring
	// Segment names the target segment; when empty, Segno is used
	// directly (numbers at or beyond the descriptor bound decide as
	// missing segments, exactly as the hardware would).
	Segment string
	Segno   uint32
	// Wordno is the target word number.
	Wordno uint32
	// Kind selects the access kind for OpAccess.
	Kind core.AccessKind
	// EffRing is the effective ring of the operand address (TPR.RING)
	// for call/return; nil means equal to Ring.
	EffRing *Ring
	// SameSegment marks a call whose target lies in the segment
	// containing the CALL itself (the gate list is then ignored).
	SameSegment bool
	// Chain is the address chain for OpEffRing.
	Chain []ChainStep
}

// Decision is the service's answer to one Query.
type Decision struct {
	// Allowed reports that the reference (or transfer) is permitted.
	Allowed bool `json:"allowed"`
	// Violation is the architectural violation kind when not allowed
	// (empty otherwise).
	Violation string `json:"violation,omitempty"`
	// ViolationKind is the machine-readable violation code.
	ViolationKind core.ViolationKind `json:"violation_kind,omitempty"`
	// Outcome reports the call/return classification ("same-ring call",
	// "downward call", ...) for OpCall/OpReturn.
	Outcome string `json:"outcome,omitempty"`
	// NewRing is the resulting ring: the ring of execution after a
	// call/return, or the final effective ring for OpEffRing.
	NewRing Ring `json:"new_ring,omitempty"`
	// Trapped reports an outcome the hardware does not automate (upward
	// call, downward return): allowed, but mediated by software.
	Trapped bool `json:"trapped,omitempty"`
	// Err reports a malformed query (unknown op, unknown segment name).
	Err string `json:"err,omitempty"`
	// VersionLo and VersionHi report the mutation epoch of the
	// descriptor-store shard the decision consulted. Decisions read
	// RCU snapshots, the store's only copy of the descriptors, so both
	// fields carry the (even) publication epoch of the pinned snapshot
	// — a degenerate interval meaning a clean snapshot of that shard at
	// that version (see the package comment).
	VersionLo uint64 `json:"version_lo"`
	VersionHi uint64 `json:"version_hi"`
	// Shard is the shard whose epoch VersionLo/VersionHi refer to.
	// It is -1 when no single shard was consulted: a malformed query
	// (no versions reported) or an effring chain touching segments in
	// several shards — the interval then reports the sum of the
	// consulted shards' pinned snapshot epochs (the store-wide Version
	// analogue) instead.
	Shard int `json:"shard"`
	// Worker is the index of the decision slot (simulated processor)
	// that evaluated the decision.
	Worker int `json:"worker"`
}

// Config sizes a Service.
type Config struct {
	// Workers is the number of decision slots — batches decided at
	// once, each on its caller's goroutine; default 4.
	Workers int
	// QueueDepth is how many more callers may wait for a free slot;
	// beyond that, Submit sheds with ErrQueueFull. Default 64.
	QueueDepth int
	// BatchLimit caps the number of queries per submitted batch;
	// default 1024.
	BatchLimit int
}

// Service errors.
var (
	// ErrQueueFull is returned by Submit when Workers+QueueDepth
	// batches are in flight: shed or retry (HTTP maps it to 429).
	ErrQueueFull = errors.New("service: decision queue full")
	// ErrClosed is returned by Submit after Close (HTTP maps it to 503).
	ErrClosed = errors.New("service: closed")
	// ErrBatchTooLarge is returned when one batch exceeds BatchLimit.
	ErrBatchTooLarge = errors.New("service: batch exceeds limit")
)

// slot is one decision slot — a simulated processor: its registered
// snapshot reader, from whose pinned snapshots it reads every
// descriptor, and the counters its decisions feed. A caller holds a
// slot for one batch; taking and releasing busy orders successive
// holders, so nothing else needs a lock.
type slot struct {
	busy atomic.Bool
	_    [56]byte // callers scanning for a free slot read busy; keep it off the holder's lines

	index  int
	rd     *reader
	tally  tally    // the held batch's counts, in plain words
	counts counters // the tallies of finished batches, for Snapshot
}

// closedBit marks Service.inflight once Close has begun; the bits
// below it count admitted batches.
const closedBit = 1 << 62

// Service is the concurrent protection-decision engine: decision slots
// over one Store. Every batch is pinned, evaluated and unpinned on the
// goroutine that submits it.
type Service struct {
	store *Store
	cfg   Config
	slots []*slot
	// wake carries release notices to callers waiting for a slot. One
	// buffered notice per slot lets a burst of releases wake as many
	// waiters as it frees slots; a release that finds the buffer full
	// drops its notice, as a pending one already makes a waiter rescan
	// (and pass a notice on when it releases in turn).
	wake chan struct{}
	// born is the monotonic origin of batch timing: time.Since(born)
	// reads one clock, where time.Now reads two.
	born time.Time

	// inflight counts admitted batches (at most Workers+QueueDepth),
	// plus closedBit once Close has begun; waiting counts admitted
	// callers blocked on a free slot; rejected counts callers shed at
	// admission.
	inflight atomic.Int64
	waiting  atomic.Int64
	rejected atomic.Uint64

	// drained is closed (once, guarded by drainSignalled) when the last
	// in-flight batch leaves a closed service.
	drained        chan struct{}
	drainSignalled atomic.Bool
	closeOnce      sync.Once
}

// New builds a Service over st with Config.Workers decision slots. It
// starts no goroutines.
func New(st *Store, cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 1024
	}
	s := &Service{
		store:   st,
		cfg:     cfg,
		wake:    make(chan struct{}, cfg.Workers),
		born:    time.Now(),
		drained: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.slots = append(s.slots, &slot{index: i, rd: st.newReader()})
	}
	return s, nil
}

// Store returns the descriptor store the service decides against.
func (s *Service) Store() *Store { return s.store }

// Workers returns the number of decision slots.
func (s *Service) Workers() int { return len(s.slots) }

// QueueDepth returns the number of callers allowed to wait for a slot.
func (s *Service) QueueDepth() int { return s.cfg.QueueDepth }

// BatchLimit returns the maximum number of queries per batch.
func (s *Service) BatchLimit() int { return s.cfg.BatchLimit }

// Submit evaluates one batch of queries and returns its decisions.
// When Workers+QueueDepth batches are already in flight it fails fast
// with ErrQueueFull rather than blocking — the backpressure contract.
// A context cancelled while the caller waits for a free slot abandons
// the batch with ctx.Err().
func (s *Service) Submit(ctx context.Context, queries []Query) ([]Decision, error) {
	ds := make([]Decision, len(queries))
	if err := s.SubmitInto(ctx, queries, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// SubmitInto is the allocation-free form of Submit: decision i for
// queries[i] is written into dst[i], which must hold at least
// len(queries) elements. The batch is evaluated on the calling
// goroutine; a SubmitInto round trip performs no heap allocation
// (guarded by TestSubmitIntoZeroAlloc).
//
// An admitted caller that finds every slot busy waits for one; waiters
// are not served in arrival order (each release wakes one, which
// rescans the slots). If ctx is done first, SubmitInto returns
// ctx.Err() and leaves dst untouched; once a slot is held the batch
// runs to completion. A context already done when a slot is free does
// not stop the batch.
//
//ring:hotpath
func (s *Service) SubmitInto(ctx context.Context, queries []Query, dst []Decision) error {
	if len(queries) > s.cfg.BatchLimit {
		//ring:allow rejected-batch path: the error itself is the allocation
		return fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, len(queries), s.cfg.BatchLimit)
	}
	if len(dst) < len(queries) {
		//ring:allow caller-bug path: the error itself is the allocation
		return fmt.Errorf("service: destination holds %d decisions for %d queries", len(dst), len(queries))
	}
	n := s.inflight.Add(1)
	if n&closedBit != 0 {
		s.leave()
		return ErrClosed
	}
	if n > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.leave()
		s.rejected.Add(1)
		return ErrQueueFull
	}
	start := time.Since(s.born)

	sl := s.tryAcquire()
	if sl == nil {
		// Announce the wait before rescanning: a release that the scan
		// misses sees waiting > 0 and sends a wake notice.
		s.waiting.Add(1)
		for sl = s.tryAcquire(); sl == nil; sl = s.tryAcquire() {
			select {
			case <-s.wake:
			case <-ctx.Done():
				s.waiting.Add(-1)
				s.leave()
				return ctx.Err()
			}
		}
		s.waiting.Add(-1)
	}
	for i := range queries {
		dst[i] = Decision{Worker: sl.index}
		evalQuery(s.store, sl.rd, &sl.tally, &queries[i], &dst[i])
		sl.tally.count(queries[i].Op, &dst[i])
	}
	// End of batch: quiesce so mutators can reclaim, then publish the
	// batch's counts.
	sl.tally[cPins] += sl.rd.unpin()
	sl.counts.add(&sl.tally)
	sl.counts.observe(time.Since(s.born) - start)

	// Release after the unpin: the wake send must never run pinned.
	sl.busy.Store(false)
	if s.waiting.Load() != 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	s.leave()
	return nil
}

// tryAcquire takes a free slot, or returns nil when all are busy.
//
//ring:hotpath
func (s *Service) tryAcquire() *slot {
	for _, sl := range s.slots {
		if !sl.busy.Load() && sl.busy.CompareAndSwap(false, true) {
			return sl
		}
	}
	return nil
}

// leave gives back one admission; the last batch out of a closed
// service wakes Close.
//
//ring:hotpath
func (s *Service) leave() {
	if s.inflight.Add(-1) == closedBit && s.drainSignalled.CompareAndSwap(false, true) {
		close(s.drained)
	}
}

// Close stops admission, waits for every in-flight batch to finish,
// and unregisters the slots' snapshot readers so they no longer delay
// store reclamation. Safe to call more than once; every call returns
// after the drain.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		// Close counts itself in and leaves at once: whoever brings the
		// count to zero, Close or the last batch, signals drained.
		s.inflight.Add(closedBit + 1)
		s.leave()
		<-s.drained
		for _, sl := range s.slots {
			s.store.releaseReader(sl.rd)
		}
	})
}

// evalQuery answers q into d over store st — the whole decision
// procedure: the Figures 4–9 predicates of internal/core applied to
// descriptors read from rd's pinned RCU snapshots, so every descriptor
// and epoch report comes from one snapshot per consulted shard. The
// lookups and validations it performs are counted into t. Malformed
// queries set d.Err and report no epoch interval; architectural
// outcomes (violations, traps) are regular decisions stamped with the
// consulted shard's snapshot epoch.
//
//ring:hotpath
//ring:pins
func evalQuery(st *Store, rd *reader, t *tally, q *Query, d *Decision) {
	d.Shard = -1
	segno := q.Segno
	if q.Segment != "" {
		n, ok := st.Segno(q.Segment)
		if !ok {
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("unknown segment %q", q.Segment)
			return
		}
		segno = n
	}
	if !q.Ring.Valid() {
		//ring:allow malformed query: Err formatting is the cold path
		d.Err = fmt.Sprintf("invalid ring %d", q.Ring)
		return
	}

	switch q.Op {
	case OpAccess:
		switch q.Kind {
		case core.AccessRead, core.AccessWrite, core.AccessExecute:
		default:
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("invalid access kind %d", q.Kind)
			return
		}
		v := fetch(st, rd, t, segno, d)
		switch q.Kind {
		case core.AccessRead:
			t[cValidates]++
			d.setViolationKind(core.ReadCheck(v, q.Wordno, q.Ring))
		case core.AccessWrite:
			t[cValidates]++
			d.setViolationKind(core.WriteCheck(v, q.Wordno, q.Ring))
		default:
			d.setViolationKind(core.FetchCheck(v, q.Wordno, q.Ring))
		}

	case OpCall, OpReturn:
		effRing := q.Ring
		if q.EffRing != nil {
			effRing = *q.EffRing
		}
		if !effRing.Valid() {
			//ring:allow malformed query: Err formatting is the cold path
			d.Err = fmt.Sprintf("invalid effective ring %d", effRing)
			return
		}
		v := fetch(st, rd, t, segno, d)
		if q.Op == OpCall {
			dec, kind := core.CallCheck(v, q.Wordno, q.Ring, effRing, q.SameSegment)
			d.setOutcome(kind, dec.Outcome.String(), dec.NewRing, dec.Outcome == core.CallUpwardTrap)
		} else {
			dec, kind := core.ReturnCheck(v, q.Wordno, q.Ring, effRing)
			d.setOutcome(kind, dec.Outcome.String(), dec.NewRing, dec.Outcome == core.ReturnDownwardTrap)
		}

	case OpEffRing:
		// Pre-scan the chain: validate the ring fields and find which
		// shards the indirect steps will consult, so the epoch interval
		// can name a single shard when only one is involved. A chain
		// spanning shards is stamped with the sum of the consulted
		// shards' pinned snapshot epochs, with Shard = -1; a chain with
		// no indirect step consults no shard and reports the live
		// store-wide Version, read before and after the fold.
		var mask uint64 // consulted shard set (MaxShards ≤ 64)
		for i := range q.Chain {
			step := &q.Chain[i]
			if !step.Ring.Valid() {
				//ring:allow malformed query: Err formatting is the cold path
				d.Err = fmt.Sprintf("invalid ring %d in chain", step.Ring)
				return
			}
			if !step.PR {
				mask |= 1 << st.ShardOf(step.Segno)
			}
		}
		if mask != 0 && mask&(mask-1) == 0 {
			d.Shard = bits.TrailingZeros64(mask)
		}
		if mask != 0 {
			d.VersionLo = rd.pinSum(mask)
		} else {
			d.VersionLo = st.Version()
		}
		d.VersionHi = d.VersionLo
		eff := q.Ring
		for _, step := range q.Chain {
			if step.PR {
				eff = core.EffectiveRingPR(eff, step.Ring)
				continue
			}
			v := rd.pin(st.ShardOf(step.Segno)).view(step.Segno >> st.shardBits)
			t[cLookups]++
			// The indirect word itself is read during effective address
			// formation, validated like any operand read (Figure 5).
			t[cValidates]++
			if kind := core.ReadCheck(v, 0, eff); kind != core.ViolationNone {
				d.setViolationKind(kind)
				return
			}
			eff = core.EffectiveRingIndirect(eff, step.Ring, v.R1)
		}
		if mask == 0 {
			d.VersionHi = st.Version()
		}
		d.Allowed = true
		d.NewRing = eff

	default:
		//ring:allow malformed query: Err formatting is the cold path
		d.Err = fmt.Sprintf("unknown op %q", q.Op)
	}
}

// fetch reads segno's descriptor from rd's pinned snapshot of its
// shard, stamps d with that shard and the snapshot's epoch, and counts
// the lookup into t.
//
//ring:hotpath
//ring:pins
func fetch(st *Store, rd *reader, t *tally, segno uint32, d *Decision) core.SDWView {
	sh := st.ShardOf(segno)
	s := rd.pin(sh)
	t[cLookups]++
	d.Shard, d.VersionLo, d.VersionHi = sh, s.epoch, s.epoch
	return s.view(segno >> st.shardBits)
}

// setOutcome fills a CALL or RETURN decision: the violation when kind
// is not ViolationNone, otherwise the outcome, the new ring and whether
// the hardware traps.
//
//ring:hotpath
func (d *Decision) setOutcome(kind core.ViolationKind, outcome string, newRing Ring, trapped bool) {
	if kind != core.ViolationNone {
		d.setViolationKind(kind)
		return
	}
	d.Allowed, d.Outcome, d.NewRing, d.Trapped = true, outcome, newRing, trapped
}

// setViolationKind fills the violation fields (allowed when kind is
// ViolationNone). ViolationKind.String returns an interned constant,
// so denial decisions allocate nothing either.
//
//ring:hotpath
func (d *Decision) setViolationKind(kind core.ViolationKind) {
	if kind == core.ViolationNone {
		d.Allowed = true
		return
	}
	d.Allowed = false
	d.Violation = kind.String()
	d.ViolationKind = kind
}
