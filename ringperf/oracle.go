package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/service"
)

// expect is the decision oracle's evaluator: what the paper's
// validation logic (the core predicates of Figures 4-9) answers for q
// when segment s has descriptor view(s). It composes the predicates
// the way the decision service documents its answers, but shares no
// code with the service beyond core itself.
func expect(q *service.Query, view func(segno uint32) core.SDWView) service.Decision {
	var d service.Decision
	deny := func(k core.ViolationKind) service.Decision {
		return service.Decision{ViolationKind: k}
	}
	switch q.Op {
	case service.OpAccess:
		v := view(q.Segno)
		var k core.ViolationKind
		switch q.Kind {
		case core.AccessRead:
			k = core.ReadCheck(v, q.Wordno, q.Ring)
		case core.AccessWrite:
			k = core.WriteCheck(v, q.Wordno, q.Ring)
		default:
			k = core.FetchCheck(v, q.Wordno, q.Ring)
		}
		if k != core.ViolationNone {
			return deny(k)
		}
		d.Allowed = true
	case service.OpCall:
		eff := q.Ring
		if q.EffRing != nil {
			eff = *q.EffRing
		}
		dec, k := core.CallCheck(view(q.Segno), q.Wordno, q.Ring, eff, q.SameSegment)
		if k != core.ViolationNone {
			return deny(k)
		}
		d.Allowed, d.Outcome, d.NewRing = true, dec.Outcome.String(), dec.NewRing
		d.Trapped = dec.Outcome == core.CallUpwardTrap
	case service.OpReturn:
		eff := q.Ring
		if q.EffRing != nil {
			eff = *q.EffRing
		}
		dec, k := core.ReturnCheck(view(q.Segno), q.Wordno, q.Ring, eff)
		if k != core.ViolationNone {
			return deny(k)
		}
		d.Allowed, d.Outcome, d.NewRing = true, dec.Outcome.String(), dec.NewRing
		d.Trapped = dec.Outcome == core.ReturnDownwardTrap
	case service.OpEffRing:
		eff := q.Ring
		for _, st := range q.Chain {
			if st.PR {
				eff = core.EffectiveRingPR(eff, st.Ring)
				continue
			}
			v := view(st.Segno)
			// Reading the indirect word is itself a validated read.
			if k := core.ReadCheck(v, 0, eff); k != core.ViolationNone {
				return deny(k)
			}
			eff = core.EffectiveRingIndirect(eff, st.Ring, v.R1)
		}
		d.Allowed, d.NewRing = true, eff
	}
	return d
}

// sameDecision compares the fields the oracle and the ladder check:
// the architectural answer, never the worker or the version stamps.
func sameDecision(a, b *service.Decision) bool {
	return a.Allowed == b.Allowed && a.ViolationKind == b.ViolationKind &&
		a.Outcome == b.Outcome && a.NewRing == b.NewRing &&
		a.Trapped == b.Trapped && a.Err == b.Err
}

// edit is one logged descriptor state: the view segment s has from
// shard epoch epoch on.
type edit struct {
	epoch uint64
	view  core.SDWView
}

// oracleState is an immutable copy of the edit log: per segment, its
// states in epoch order; per shard, the epoch of the last logged edit.
type oracleState struct {
	hist  [][]edit
	epoch []uint64
}

// viewAt returns segment segno's view at shard epoch e.
func (s *oracleState) viewAt(segno uint32, e uint64) core.SDWView {
	h := s.hist[segno]
	for i := len(h) - 1; i > 0; i-- {
		if h[i].epoch <= e {
			return h[i].view
		}
	}
	return h[0].view
}

// Oracle checks decisions against the core predicates over the
// benchmark's own log of supervisor edits. Each edit bumps its shard's
// epoch by 2, as the store does, so the log keys every descriptor state
// by the shard epoch a decision reports. Readers never lock: the log is
// copied on write (edits are rare) and published atomically.
type Oracle struct {
	shards uint32

	mu     sync.Mutex // serializes writers
	logged atomic.Pointer[oracleState]
	acked  atomic.Pointer[oracleState]

	mismatches atomic.Uint64
}

// NewOracle starts a log at img's initial views (epoch 0 everywhere).
func NewOracle(img *Image, shards int) *Oracle {
	st := &oracleState{hist: make([][]edit, len(img.Views)), epoch: make([]uint64, shards)}
	for i, v := range img.Views {
		st.hist[i] = []edit{{view: v}}
	}
	o := &Oracle{shards: uint32(shards)}
	o.logged.Store(st)
	o.acked.Store(st)
	return o
}

func (o *Oracle) shardOf(segno uint32) int { return int(segno % o.shards) }

// Begin logs an edit of segno to view before it is sent, so any
// decision that observes it finds it here, and returns the shard epoch
// the edit publishes.
func (o *Oracle) Begin(segno uint32, view core.SDWView) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.logged.Load()
	next := &oracleState{hist: append([][]edit(nil), cur.hist...), epoch: append([]uint64(nil), cur.epoch...)}
	sh := o.shardOf(segno)
	next.epoch[sh] += 2
	next.hist[segno] = append(append([]edit(nil), cur.hist[segno]...), edit{epoch: next.epoch[sh], view: view})
	o.logged.Store(next)
	return next.epoch[sh]
}

// Acked records that every logged edit has been acknowledged: fresh
// reads can no longer see the states before them.
func (o *Oracle) Acked() { o.acked.Store(o.logged.Load()) }

// View returns segno's latest logged view.
func (o *Oracle) View(segno uint32) core.SDWView {
	s := o.logged.Load()
	return s.viewAt(segno, s.epoch[o.shardOf(segno)])
}

// Mark is taken before a batch is sent: the acknowledged log bounds
// which states a fresh (uncached) read of the batch may see.
func (o *Oracle) Mark() *oracleState { return o.acked.Load() }

// CheckBatch checks every decision of a batch sent after mark and
// returns how many disagree with the oracle; the count also adds to
// the oracle's running total.
func (o *Oracle) CheckBatch(mark *oracleState, qs []service.Query, ds []service.Decision) int {
	cur := o.logged.Load()
	bad := 0
	for i := range qs {
		if !o.check(mark, cur, &qs[i], &ds[i]) {
			bad++
		}
	}
	if bad > 0 {
		o.mismatches.Add(uint64(bad))
	}
	return bad
}

// Mismatches returns the running mismatch count.
func (o *Oracle) Mismatches() uint64 { return o.mismatches.Load() }

// check decides one decision. A decision naming one shard is checked
// at exactly its reported epoch, which must be even, a degenerate
// interval, and already logged; that covers cached decisions, however
// old. An effring chain over several shards reports the sum of the
// shards' pinned epochs; such decisions are never cached, so each
// shard's epoch lies between mark and the current log, and the
// decision must match some combination with the reported sum.
func (o *Oracle) check(mark, cur *oracleState, q *service.Query, d *service.Decision) bool {
	if d.Err != "" {
		return false // the generator draws only well-formed queries
	}
	var shards [maxChain + 1]int
	n := 0
	add := func(segno uint32) {
		sh := o.shardOf(segno)
		for _, s := range shards[:n] {
			if s == sh {
				return
			}
		}
		shards[n] = sh
		n++
	}
	if q.Op == service.OpEffRing {
		for _, st := range q.Chain {
			if !st.PR {
				add(st.Segno)
			}
		}
	} else {
		add(q.Segno)
	}
	switch n {
	case 0: // a chain of pointer registers consults no descriptor
		want := expect(q, nil)
		return sameDecision(&want, d)
	case 1:
		e := d.VersionLo
		if d.Shard != shards[0] || d.VersionHi != e || e%2 != 0 || e > cur.epoch[shards[0]] {
			return false
		}
		want := expect(q, func(segno uint32) core.SDWView { return cur.viewAt(segno, e) })
		return sameDecision(&want, d)
	}
	if d.Shard != -1 || d.VersionHi != d.VersionLo {
		return false
	}
	var epochs [maxChain + 1]uint64
	var try func(k int, sum uint64) bool
	try = func(k int, sum uint64) bool {
		if k == n {
			if sum != d.VersionLo {
				return false
			}
			want := expect(q, func(segno uint32) core.SDWView {
				sh := o.shardOf(segno)
				for j := 0; j < n; j++ {
					if shards[j] == sh {
						return cur.viewAt(segno, epochs[j])
					}
				}
				return cur.viewAt(segno, 0)
			})
			return sameDecision(&want, d)
		}
		sh := shards[k]
		for e := mark.epoch[sh]; e <= cur.epoch[sh]; e += 2 {
			epochs[k] = e
			if try(k+1, sum+e) {
				return true
			}
		}
		return false
	}
	return try(0, 0)
}
