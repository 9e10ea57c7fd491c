// Package service exposes the MMU decision procedure as a concurrent
// protection-decision server: the reference monitor the paper's
// hardware implements, offered as a policy-decision point for many
// clients at once.
//
// The paper's validation logic — bracket checks, gate lists, the
// CALL/RETURN decision tables — is a mechanical procedure evaluated on
// every reference. internal/mmu already packages that procedure as the
// single access path of the simulated machine; this package puts a
// server around it:
//
//   - a Store holds one protection image: the segment names and, per
//     shard, an immutable RCU snapshot of the segment descriptor words
//     (see rcu.go). The snapshots are the only copy of the descriptors:
//     decisions read them and supervisor edits replace them;
//   - a Service holds decision slots, each an MMU pointed at an
//     epoch-counted snapshot reader — the paper's several processors
//     sharing one descriptor segment. There is no queue and no worker
//     goroutine: as the paper's processor validates inline in the
//     reference path, a caller takes a free slot and decides its batch
//     on its own goroutine. At most Workers+QueueDepth batches are
//     admitted.
//
// The package speaks no network protocol: internal/tenant serves the
// HTTP/JSON surface and internal/wire the binary one, both over
// Service.Submit and Store.Apply.
//
// # Consistency model
//
// The descriptor store is sharded by segment number: shard i owns the
// descriptors whose segno & (Shards-1) == i, with its own mutation
// mutex, its own epoch counter — odd while an edit of one of its
// descriptors is in flight, even when quiescent — and its own published
// snapshot. Mutations of descriptors in different shards proceed
// concurrently; an operation that ever needs to quiesce the whole store
// must take the shard locks in ascending index order.
//
// Decisions never lock: the goroutine holding a slot pins, per batch,
// the current snapshot of every shard it consults (one atomic pointer
// load per shard per batch) and decides against that immutable table. A
// blocked or slow mutation therefore never delays a decision — readers
// keep answering from the last published snapshot. Mutators serialize
// per shard, edit a copy of the current descriptor, publish the
// successor snapshot, and reclaim old snapshot buffers only after a
// grace period; rcu.go documents the lifecycle and the reclamation
// rule.
//
// Each Decision reports the publication epoch of the snapshot it
// consulted as a degenerate interval (VersionLo == VersionHi, even):
// every decision is a clean snapshot of the consulted shard, which the
// T12 experiment and the sharded differential test cross-check against
// a single-threaded oracle replay over an independent store.
package service

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/seg"
)

// Segment describes one segment of the protection image the store
// serves decisions about.
type Segment struct {
	Name string
	// Size is the segment length in words, at most seg.MaxBound; zero
	// means one word.
	Size int

	Read, Write, Execute bool
	Brackets             core.Brackets
	// Gates is the number of gate locations (words 0..Gates-1), at most
	// Size and seg.MaxGate.
	Gates uint32
}

// StoreConfig sizes the store.
type StoreConfig struct {
	// Shards is the number of descriptor-store shards (a power of two,
	// at most 64); default 8. Each shard serializes mutations of its own
	// descriptors under its own lock and epoch, so decisions and
	// supervisor edits touching different shards never contend.
	Shards int
}

// MaxSegments bounds the descriptor segment: an image holds at most
// MaxSegments segments, and segment numbers at or beyond it decide as
// absent.
const MaxSegments = 256

// MaxShards bounds StoreConfig.Shards. Shard sets consulted by one
// decision are tracked in a 64-bit mask, and more shards than cores buy
// nothing: the lock an edit takes protects one segment's descriptor,
// not a hot global structure.
const MaxShards = 64

// shard is one slice of the descriptor store: the descriptors with
// segno ≡ index (mod Shards), their mutation lock, their epoch, and
// their published RCU snapshot with its retired/free buffer lists
// (rcu.go).
type shard struct {
	// epoch is odd while a mutation of this shard's descriptors is in
	// flight, even when quiescent; epoch/2 counts completed mutations.
	// It sits first, padded to a cache line, because readers load it
	// once per pin while mutators write it.
	epoch atomic.Uint64
	_     [56]byte // keep the shards' epochs on distinct cache lines

	// snap is the current published snapshot; readers load it with a
	// single atomic operation per pin and never lock. Padded so
	// publishes do not bounce the neighbouring shard's reader lines.
	snap atomic.Pointer[snapshot]
	_    [56]byte

	mu sync.Mutex

	// retired holds predecessors awaiting their grace period; free
	// holds reclaimed SDW buffers for reuse. Both under mu, both
	// bounded (rcu.go).
	retired []*snapshot //ring:guarded mu
	free    [][]seg.SDW //ring:guarded mu
	stats   shardRCUStats
}

// shardRCUStats mirrors the shard's snapshot bookkeeping in atomics so
// RCUStats never takes a shard mutex (a blocked mutation must not
// block /metrics).
type shardRCUStats struct {
	publishes, reused, recycled, dropped atomic.Uint64
	retired, free                        atomic.Int64
}

// Store is the shared descriptor state of a decision service: the
// segment names and the sharded snapshots through which every
// descriptor is read and every edit is published.
type Store struct {
	shards    []shard
	shardMask uint32
	shardBits uint32 // log2(Shards): segno >> shardBits indexes a shard's SDW table

	// readers is the copy-on-write list of registered epoch-counted
	// readers (rcu.go); readersMu serializes registration only —
	// reclamation scans load the pointer without locking.
	readersMu sync.Mutex
	readers   atomic.Pointer[[]*reader]

	// publishHook, when set, is called after every snapshot publication
	// with the shard index, the edited segment number and the new (even)
	// publication epoch — still under the shard's mutation lock, so for
	// a given shard the calls arrive in strictly increasing epoch order.
	// This is the network analogue of the coherence Group's shootdown
	// broadcast: the tenant layer fans the event out to subscribed wire
	// sessions. The hook must not block and must not call back into the
	// store's mutation path.
	publishHook atomic.Pointer[func(shard int, segno uint32, epoch uint64)]

	names  map[string]uint32
	segnos []string
}

// NewStore builds a store holding the given segments, numbered in
// order from 0, and publishes each shard's epoch-0 snapshot.
func NewStore(cfg StoreConfig, defs []Segment) (*Store, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 0 || cfg.Shards > MaxShards || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("service: shard count %d is not a power of two in [1,%d]", cfg.Shards, MaxShards)
	}
	if len(defs) > MaxSegments {
		return nil, fmt.Errorf("service: %d segments exceed MaxSegments %d", len(defs), MaxSegments)
	}
	st := &Store{
		shards:    make([]shard, cfg.Shards),
		shardMask: uint32(cfg.Shards - 1),
		shardBits: uint32(bits.TrailingZeros32(uint32(cfg.Shards))),
		names:     make(map[string]uint32, len(defs)),
	}
	st.readers.Store(&[]*reader{})
	// Shard i's table covers segment numbers i, i+Shards, i+2*Shards,
	// ... below MaxSegments; never-defined numbers stay absent.
	tables := make([][]seg.SDW, cfg.Shards)
	for i := range tables {
		tables[i] = make([]seg.SDW, MaxSegments/cfg.Shards)
	}
	for i, def := range defs {
		if def.Name == "" {
			return nil, fmt.Errorf("service: segment %d has no name", i)
		}
		if _, dup := st.names[def.Name]; dup {
			return nil, fmt.Errorf("service: duplicate segment %q", def.Name)
		}
		size := def.Size
		if size == 0 {
			size = 1 // a zero-length segment would make every reference a bound fault
		}
		if size < 0 || size > seg.MaxBound {
			return nil, fmt.Errorf("service: segment %q size %d outside [0,%d]", def.Name, def.Size, seg.MaxBound)
		}
		sdw := seg.SDW{
			Present: true, Bound: uint32(size),
			Read: def.Read, Write: def.Write, Execute: def.Execute,
			Brackets: def.Brackets, Gate: def.Gates,
		}
		if err := sdw.Validate(); err != nil {
			return nil, fmt.Errorf("service: segment %q: %w", def.Name, err)
		}
		segno := uint32(i)
		tables[segno&st.shardMask][segno>>st.shardBits] = sdw
		st.names[def.Name] = segno
		st.segnos = append(st.segnos, def.Name)
	}
	for i := range st.shards {
		st.shards[i].snap.Store(&snapshot{sdws: tables[i]})
	}
	return st, nil
}

// Segno resolves a segment name.
//
//ring:hotpath
func (st *Store) Segno(name string) (uint32, bool) {
	n, ok := st.names[name]
	return n, ok
}

// Segments returns the segment names in segment-number order.
func (st *Store) Segments() []string { return st.segnos }

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// ShardOf returns the index of the shard owning segno's descriptor.
//
//ring:hotpath
func (st *Store) ShardOf(segno uint32) int { return int(segno & st.shardMask) }

// ShardVersion returns shard i's mutation epoch: odd while an edit of
// one of its descriptors is in flight, even when quiescent.
// ShardVersion(i)/2 is the number of completed mutations in shard i.
//
//ring:hotpath
func (st *Store) ShardVersion(i int) uint64 { return st.shards[i].epoch.Load() }

// Version returns the store-wide mutation activity counter: the sum of
// the shard epochs. It is monotonic, equals twice the number of
// completed mutations when the store is quiescent, and is odd exactly
// when an odd number of edits are in flight. Per-shard clean-snapshot
// reasoning uses ShardVersion instead.
//
//ring:hotpath
func (st *Store) Version() uint64 {
	var sum uint64
	for i := range st.shards {
		sum += st.shards[i].epoch.Load()
	}
	return sum
}

// mutate applies edit to a copy of segno's current descriptor under
// the owning shard's mutex, with the shard epoch odd while the edit is
// in flight. A valid result is published as the shard's successor
// snapshot, stamped with the closing (even) epoch, so decisions pick
// up the edit on their next batch without ever locking. A rejected
// edit publishes nothing and leaves the old snapshot current; the
// epoch still closes even.
func (st *Store) mutate(segno uint32, edit func(seg.SDW) (seg.SDW, error)) error {
	shi := st.ShardOf(segno)
	sh := &st.shards[shi]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	epoch := sh.epoch.Add(1) // odd: edit in flight
	defer sh.epoch.Add(1)
	if segno >= MaxSegments {
		return fmt.Errorf("service: segment number %d beyond the descriptor segment", segno)
	}
	sdw, err := edit(sh.snap.Load().sdws[segno>>st.shardBits])
	if err == nil {
		err = sdw.Validate()
	}
	if err != nil {
		return err
	}
	st.publishLocked(shi, segno, sdw, epoch+1)
	return nil
}

// SetPublishHook installs f to be called after every snapshot
// publication (shard index, edited segno, new even epoch), under the
// publishing shard's mutation lock — per-shard calls are serialized in
// strictly increasing epoch order. A nil f removes the hook. Intended
// to be set once, before mutations begin, by the layer distributing
// invalidations (internal/tenant's lease hub).
func (st *Store) SetPublishHook(f func(shard int, segno uint32, epoch uint64)) {
	if f == nil {
		st.publishHook.Store(nil)
		return
	}
	st.publishHook.Store(&f)
}

// SetBrackets replaces the flags, brackets and gate count of segno,
// keeping its bound. Supervisor functionality: the edit publishes a
// fresh shard snapshot, which every batch pinned after the publication
// sees.
func (st *Store) SetBrackets(segno uint32, read, write, execute bool, b core.Brackets, gates uint32) error {
	return st.mutate(segno, func(sdw seg.SDW) (seg.SDW, error) {
		if !sdw.Present {
			return sdw, fmt.Errorf("service: setbrackets on absent segment %d", segno)
		}
		sdw.Read, sdw.Write, sdw.Execute = read, write, execute
		sdw.Brackets = b
		sdw.Gate = gates
		return sdw, nil
	})
}

// Revoke clears the present flag of segno, leaving the rest of the
// descriptor intact: every subsequent reference takes a missing-segment
// fault.
func (st *Store) Revoke(segno uint32) error {
	return st.mutate(segno, func(sdw seg.SDW) (seg.SDW, error) {
		sdw.Present = false
		return sdw, nil
	})
}

// Restore re-sets the present flag of a revoked segment.
func (st *Store) Restore(segno uint32) error {
	return st.mutate(segno, func(sdw seg.SDW) (seg.SDW, error) {
		sdw.Present = true
		return sdw, nil
	})
}

// MutOp names a supervisor mutation.
type MutOp string

const (
	// MutSetBrackets replaces a segment's flags, brackets and gates.
	MutSetBrackets MutOp = "setbrackets"
	// MutRevoke clears a segment's present flag.
	MutRevoke MutOp = "revoke"
	// MutRestore re-sets a revoked segment's present flag.
	MutRestore MutOp = "restore"
)

// Mutation is one supervisor edit, as both network transports carry
// it. The target segment is named by Segment, or by Segno when Segment
// is empty.
type Mutation struct {
	Op      MutOp
	Segment string
	Segno   uint32

	// MutSetBrackets payload.
	Read     bool
	Write    bool
	Execute  bool
	Brackets core.Brackets
	Gates    uint32
}

// ErrUnknownSegment reports a mutation naming a segment the image does
// not hold.
var ErrUnknownSegment = errors.New("unknown segment")

// Apply performs m and returns the store version after it: it resolves
// the segment name, validates setbrackets' brackets, then edits the
// descriptor. The HTTP and binary mutate handlers both call it, so an
// edit is accepted or refused, with the same message, on either
// transport.
func (st *Store) Apply(m Mutation) (version uint64, err error) {
	segno := m.Segno
	if m.Segment != "" {
		n, ok := st.Segno(m.Segment)
		if !ok {
			return 0, fmt.Errorf("%w %q", ErrUnknownSegment, m.Segment)
		}
		segno = n
	}
	switch m.Op {
	case MutSetBrackets:
		if err := m.Brackets.Validate(); err != nil {
			return 0, err
		}
		err = st.SetBrackets(segno, m.Read, m.Write, m.Execute, m.Brackets, m.Gates)
	case MutRevoke:
		err = st.Revoke(segno)
	case MutRestore:
		err = st.Restore(segno)
	default:
		return 0, fmt.Errorf("unknown mutation op %q", string(m.Op))
	}
	if err != nil {
		return 0, err
	}
	return st.Version(), nil
}
