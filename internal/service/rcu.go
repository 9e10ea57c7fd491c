package service

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/seg"
)

// RCU snapshot publication.
//
// The paper's validation hardware never locks the descriptor segment:
// a reference is checked against whatever descriptor words the
// processor observes. This file takes the software consequence
// seriously — access validation is a pure function of descriptor
// state, so the store publishes that state as immutable per-shard
// snapshots and decision slots evaluate against a snapshot without
// ever acquiring a lock.
//
// Lifecycle of a shard snapshot:
//
//  1. Build. A mutator, holding the shard mutex with the shard epoch
//     odd, edits a copy of the target descriptor taken from the
//     current snapshot — the snapshots are the store's only copy of
//     the descriptors — and validates it. It then copies the current
//     snapshot's SDW table into a buffer — reused from the shard free
//     list when one is available — and folds in the edited
//     descriptor.
//  2. Publish. One atomic pointer store makes the new table, stamped
//     with the closing (even) epoch, the shard's current snapshot.
//     The predecessor is retired, recording its successor's
//     publication epoch as its retireEpoch.
//  3. Grace period. A retired snapshot may still be pinned by a
//     reader whose announced epoch predates the retirement; its
//     buffer must not be written until every such reader has moved
//     on. The rule: a retired snapshot has passed its grace period
//     once every registered reader is either quiescent (slot 0) or
//     announced an epoch ≥ its retireEpoch. (The garbage collector
//     backstops correctness either way — the grace period gates
//     buffer reuse, not memory safety.)
//  4. Reclaim. Mutators scan the reader slots after each publish
//     (still under the shard mutex); buffers of snapshots past their
//     grace period return to the shard free list and are reused by a
//     later publish. Both the retired list and the free list are
//     bounded; overflow is dropped to the garbage collector and
//     counted.
//
// Readers follow the classical epoch-RCU announcement protocol,
// per shard: announce slot[sh] = shardEpoch + 1 (0 means quiescent),
// then load the snapshot pointer. Because the announcement precedes
// the pointer load and the epoch never decreases, a reader observed
// holding snapshot S with announcement a satisfies a-1 < S.retireEpoch
// whenever S is still retired-but-unreclaimed; conversely any
// announcement made at or after the successor's publication has
// a-1 ≥ S.retireEpoch and can only have loaded the successor (or
// newer). All the atomics involved are Go sync/atomic operations, so
// the race detector sees the synchronization edges: a buffer reused
// before its grace period would be a reported data race, which is what
// the -race reclamation tests lean on.
//
// Decision.VersionLo/VersionHi under snapshots: a pinned decision
// reports the (even) publication epoch of the snapshot it consulted,
// as a degenerate interval Lo == Hi. Every concurrent decision is
// therefore a clean snapshot in the T12/T13 sense — explainable at
// exactly one state of the consulted shard.

// snapshot is one immutable published view of a shard's descriptors:
// sdws[k] is the descriptor of segment number shardIndex + k*Shards
// (zero value, Present false, for segments never defined). Once
// published a snapshot is never written again until its buffer has
// been reclaimed through a grace period.
type snapshot struct {
	// epoch is the owning shard's (even) mutation epoch at
	// publication.
	epoch uint64
	sdws  []seg.SDW
	// retireEpoch is the publication epoch of the successor snapshot,
	// set under the shard mutex when this snapshot is retired. Zero
	// while the snapshot is current.
	retireEpoch uint64
}

// Retired- and free-list bounds per shard. Sized for the steady state
// — a mutation burst against a stalled reader overflows retiredCap
// and the overflow is dropped to the garbage collector (counted in
// RCUSnapshot.Dropped) rather than accumulating without bound.
const (
	retiredCap  = 8
	freeListCap = 4
)

// reader is one registered read-side of the store: a decision slot's
// epoch-counted announcement slots plus its per-batch pinned
// snapshots. It implements mmu.SDWSource, so a slot's MMU pointed at
// its reader resolves every descriptor fetch from the pinned
// snapshots. Only the goroutine holding the decision slot uses the
// reader; mutators scan its announcement slots during reclamation and
// /metrics reads its counters.
type reader struct {
	st *Store
	// slots[i] is this reader's announcement for shard i: 0 when
	// quiescent, e+1 after observing shard epoch e and before
	// loading the snapshot pointer. Mutators compare announcements
	// against retireEpochs to decide reclamation.
	slots []atomic.Uint64
	// views[i] is the snapshot pinned for shard i in the current
	// batch; nil when not yet pinned this batch.
	views []*snapshot
	// pins and lookups count snapshot pins and descriptor lookups.
	// Only the slot holder writes them; /metrics reads them live.
	pins, lookups atomic.Uint64
}

// pin returns the snapshot this reader uses for shard sh, announcing
// and loading it on first use in the current batch. The announcement
// (slot = observed epoch + 1) strictly precedes the pointer load;
// see the file comment for why that ordering makes reclamation safe.
// No locks, no allocations: two atomic operations on first use per
// shard per batch, a plain slice read afterwards.
//
//ring:hotpath
//ring:pins
func (r *reader) pin(sh int) *snapshot {
	if s := r.views[sh]; s != nil {
		return s
	}
	shd := &r.st.shards[sh]
	r.slots[sh].Store(shd.epoch.Load() + 1)
	s := shd.snap.Load()
	r.views[sh] = s
	r.pins.Add(1)
	return s
}

// unpin ends the batch: drop every pinned view and zero the
// announcement slots so mutators can reclaim past snapshots.
//
//ring:hotpath
func (r *reader) unpin() {
	for i := range r.views {
		if r.views[i] == nil {
			continue
		}
		r.views[i] = nil
		r.slots[i].Store(0)
	}
}

// pinSum pins every shard in mask (a bit per shard index) and returns
// the sum of the pinned epochs — the store-wide version analogue for
// effring chains spanning several shards.
//
//ring:hotpath
//ring:pins
func (r *reader) pinSum(mask uint64) uint64 {
	var sum uint64
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &^= 1 << i
		sum += r.pin(i).epoch
	}
	return sum
}

// LookupSDW implements mmu.SDWSource over the pinned snapshots:
// shard-route the segment number, pin that shard's snapshot if this
// batch has not yet, and index the immutable SDW table. Segment
// numbers beyond the table (or the architectural maximum) are absent,
// matching seg.Table.Fetch.
//
//ring:hotpath
//ring:pins
func (r *reader) LookupSDW(segno uint32) (seg.SDW, error) {
	r.lookups.Add(1)
	if segno > seg.MaxSegno {
		return seg.SDW{}, nil
	}
	s := r.pin(int(segno & r.st.shardMask))
	idx := int(segno >> r.st.shardBits)
	if idx >= len(s.sdws) {
		return seg.SDW{}, nil
	}
	return s.sdws[idx], nil
}

// newReader registers a new read-side with the store. Readers are
// expected to be long-lived (one per decision slot); registration
// copies the reader list so reclamation scans traverse an immutable
// slice without locking.
func (st *Store) newReader() *reader {
	r := &reader{
		st:    st,
		slots: make([]atomic.Uint64, len(st.shards)),
		views: make([]*snapshot, len(st.shards)),
	}
	st.readersMu.Lock()
	defer st.readersMu.Unlock()
	old := *st.readers.Load()
	next := make([]*reader, len(old)+1)
	copy(next, old)
	next[len(old)] = r
	st.readers.Store(&next)
	return r
}

// releaseReader unregisters r (idempotent). A released reader no
// longer delays reclamation.
func (st *Store) releaseReader(r *reader) {
	st.readersMu.Lock()
	defer st.readersMu.Unlock()
	old := *st.readers.Load()
	next := make([]*reader, 0, len(old))
	for _, o := range old {
		if o != r {
			next = append(next, o)
		}
	}
	st.readers.Store(&next)
}

// publishLocked builds and publishes the successor snapshot of shard
// index shi holding sdw as the descriptor of segno, then retires the
// predecessor and attempts reclamation. Caller holds sh.mu with the
// shard epoch odd; epoch is the closing (even) epoch the new snapshot
// is stamped with.
//
//ring:locked mu
func (st *Store) publishLocked(shi int, segno uint32, sdw seg.SDW, epoch uint64) {
	sh := &st.shards[shi]
	old := sh.snap.Load()
	buf := sh.takeBufLocked(len(old.sdws))
	copy(buf, old.sdws)
	buf[segno>>st.shardBits] = sdw
	next := &snapshot{epoch: epoch, sdws: buf}
	old.retireEpoch = epoch
	sh.snap.Store(next)
	sh.retired = append(sh.retired, old)
	sh.stats.publishes.Add(1)
	if len(sh.retired) > retiredCap {
		// Drop the oldest to the garbage collector rather than growing
		// without bound under a stalled reader.
		n := copy(sh.retired, sh.retired[1:])
		sh.retired[n] = nil
		sh.retired = sh.retired[:n]
		sh.stats.dropped.Add(1)
	}
	st.reclaimLocked(shi)
	sh.stats.retired.Store(int64(len(sh.retired)))
	sh.stats.free.Store(int64(len(sh.free)))
	if hook := st.publishHook.Load(); hook != nil {
		// Still under sh.mu: hook calls for one shard arrive in strictly
		// increasing epoch order, so a shootdown always names the epoch
		// whose publication it follows.
		(*hook)(shi, segno, epoch)
	}
}

// reclaimLocked scans the registered readers and recycles the buffers
// of retired snapshots of shard index shi whose grace period has
// passed: every reader is quiescent in this shard or has announced an
// epoch at or beyond the snapshot's retirement. Caller holds sh.mu.
//
//ring:locked mu
func (st *Store) reclaimLocked(shi int) {
	sh := &st.shards[shi]
	if len(sh.retired) == 0 {
		return
	}
	readers := *st.readers.Load()
	// Retirements are ordered by retireEpoch, so the minimum live
	// announcement bounds how far the scan can reclaim.
	floor := uint64(1<<64 - 1)
	for _, r := range readers {
		if a := r.slots[shi].Load(); a != 0 && a-1 < floor {
			floor = a - 1
		}
	}
	keep := sh.retired[:0]
	for _, s := range sh.retired {
		if s.retireEpoch <= floor {
			sh.putBufLocked(s.sdws)
			continue
		}
		keep = append(keep, s)
	}
	for i := len(keep); i < len(sh.retired); i++ {
		sh.retired[i] = nil
	}
	sh.retired = keep
}

// takeBufLocked returns an SDW buffer of length n, reusing the shard
// free list when possible. Caller holds sh.mu.
//
//ring:locked mu
func (sh *shard) takeBufLocked(n int) []seg.SDW {
	if len(sh.free) > 0 {
		buf := sh.free[len(sh.free)-1]
		sh.free[len(sh.free)-1] = nil
		sh.free = sh.free[:len(sh.free)-1]
		sh.stats.reused.Add(1)
		return buf[:n]
	}
	return make([]seg.SDW, n)
}

// putBufLocked returns a reclaimed buffer to the shard free list, or
// drops it to the garbage collector when the list is full. Caller
// holds sh.mu.
//
//ring:locked mu
func (sh *shard) putBufLocked(buf []seg.SDW) {
	if len(sh.free) < freeListCap {
		sh.free = append(sh.free, buf)
		sh.stats.recycled.Add(1)
		return
	}
	sh.stats.dropped.Add(1)
}

// RCUSnapshot reports the snapshot-publication machinery of the
// descriptor store, summed over shards. All counters are monotonic
// except Retired, Free and Readers, which are current sizes.
type RCUSnapshot struct {
	// Publishes counts snapshots published (one per completed
	// mutation).
	Publishes uint64 `json:"publishes"`
	// Reused counts publishes that reused a reclaimed SDW buffer
	// instead of allocating.
	Reused uint64 `json:"reused"`
	// Recycled counts buffers returned to a free list after their
	// grace period.
	Recycled uint64 `json:"recycled"`
	// Dropped counts retired snapshots or buffers handed to the
	// garbage collector because a bounded list was full.
	Dropped uint64 `json:"dropped"`
	// Retired is the current number of retired-but-unreclaimed
	// snapshots.
	Retired int `json:"retired"`
	// Free is the current number of reusable buffers.
	Free int `json:"free"`
	// Readers is the number of registered epoch-counted readers.
	Readers int `json:"readers"`
}

// RCUStats sums the per-shard snapshot counters. Lock-free: safe to
// call while a mutation is blocked mid-critical-section.
func (st *Store) RCUStats() RCUSnapshot {
	var out RCUSnapshot
	for i := range st.shards {
		s := &st.shards[i].stats
		out.Publishes += s.publishes.Load()
		out.Reused += s.reused.Load()
		out.Recycled += s.recycled.Load()
		out.Dropped += s.dropped.Load()
		out.Retired += int(s.retired.Load())
		out.Free += int(s.free.Load())
	}
	out.Readers = len(*st.readers.Load())
	return out
}
