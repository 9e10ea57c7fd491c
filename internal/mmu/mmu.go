// Package mmu implements the memory management unit of the simulated
// processor: the single authoritative path every memory reference takes
// from two-part address to core word.
//
// The paper's central claim is that access validation is "integrated
// with address translation" and performed "on every reference". This
// package is that integration point, extracted so that every agent in
// the system — the hardware-ring CPU, the software-ring baseline, the
// multi-process scheduler — goes through the same translate-and-check
// layer. It owns:
//
//   - DBR-relative SDW retrieval from the descriptor segment;
//   - the direct-mapped SDW associative memory, with its invalidation
//     discipline (see below);
//   - bracket validation (read, write, fetch, transfer) and the
//     CALL/RETURN decisions, on top of the pure predicates in
//     internal/core, including the T5 validation-ablation switch;
//   - virtual-to-physical translation and the core access itself;
//   - cycle accounting for descriptor reads and validations;
//   - a pluggable, allocation-free Sink for trace events.
//
// # Invalidation discipline
//
// The paper expects a changed SDW "to be immediately effective". The
// associative memory therefore obeys three rules:
//
//  1. SetDBR flushes every associative register: a new descriptor
//     segment invalidates all cached translations (the processor does
//     this itself on LDBR).
//  2. Supervisor software that edits a descriptor in place must store
//     through StoreSDW, which writes through to core and invalidates
//     the cached copy.
//  3. In a multi-processor configuration, MMUs sharing core join a
//     Group; StoreSDW then also posts a shootdown to every other member
//     (see group.go), which each processor applies before its next SDW
//     fetch. The fetch fast path stays mutex-free: one atomic
//     generation load per reference, the lock taken only when a
//     shootdown is actually pending.
//
// With the cache disabled (the default), every fetch reads the
// descriptor segment and no discipline is required of supervisor
// software.
//
// # Read-only descriptor sources
//
// An MMU can instead be pointed at an SDWSource (SetSDWSource): an
// immutable, concurrency-safe descriptor view such as a fixed table.
// In source mode FetchSDW never touches core, the associative memory,
// or the shootdown queue — the source is coherent by construction (a
// new configuration is a new source state, not an in-place edit), so
// no invalidation discipline applies. This is the software analogue of
// the paper's observation that validation is a pure function of
// descriptor state. ringperf's mmu rung and the decision service's
// exhaustive conformance test validate over a static source; the
// decision service itself uses no MMU, and applies internal/core's
// predicates directly to descriptors read from its RCU snapshots.
package mmu

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/seg"
	"repro/internal/trace"
	"repro/internal/word"
)

// Costs is the cycle cost model for the reference path. The fields
// mirror the corresponding entries of the CPU cost model; validation is
// free by default because the comparisons happen on SDW fields the
// translation logic has already fetched.
type Costs struct {
	// Validate is charged per access validation.
	Validate uint64
	// SDWMiss is charged per descriptor-segment read: on every SDW
	// fetch when the associative memory is off, and on misses only when
	// it is on.
	SDWMiss uint64
}

// Options configures an MMU.
type Options struct {
	// Validate enables ring/flag access validation. Switching it off is
	// the T5 ablation: presence and bounds are still checked (the
	// simulator could not function otherwise), but all bracket, flag and
	// gate checks are skipped.
	Validate bool
	// CacheSize is the number of SDW associative registers; it must be
	// a power of two. Zero disables the associative memory entirely.
	CacheSize int
	// Costs is the cycle cost model for the reference path.
	Costs Costs
	// Sink receives trace events; nil means tracing disabled.
	Sink Sink
}

// Check reports whether the options are well-formed. The only
// constraint is the associative memory geometry: CacheSize must be zero
// (disabled) or a power of two, because the direct-mapped index is a
// mask. The error names the offending value so callers wiring sizes
// from configuration can report it.
func (o Options) Check() error {
	if o.CacheSize < 0 {
		return fmt.Errorf("mmu: SDW cache size %d is negative; want 0 (disabled) or a power of two", o.CacheSize)
	}
	if o.CacheSize&(o.CacheSize-1) != 0 {
		return fmt.Errorf("mmu: SDW cache size %d is not a power of two (0 disables the associative memory)", o.CacheSize)
	}
	return nil
}

// CacheStats reports associative memory performance and coherence
// traffic.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	// Invalidations counts single-entry invalidations (StoreSDW on this
	// MMU plus applied remote shootdowns).
	Invalidations uint64
	// Flushes counts whole-cache flushes (DBR loads).
	Flushes uint64
	// Shootdowns counts remote invalidation requests applied.
	Shootdowns uint64
}

// HitRate returns the fraction of SDW fetches served by the associative
// memory (0 when nothing was fetched).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry struct {
	valid bool
	segno uint32
	sdw   seg.SDW
}

// SDWSource is a read-only descriptor provider: an immutable (or
// immutable-per-published-state) view of the descriptor segment that
// the fetch path consults instead of core. Implementations must be
// safe for use by the owning goroutine without locks and must mirror
// the architectural absence rule of seg.Table.Fetch — segment numbers
// at or beyond the descriptor bound return a zero (Present == false)
// SDW and a nil error; errors are reserved for simulator integrity
// faults.
type SDWSource interface {
	LookupSDW(segno uint32) (seg.SDW, error)
}

// SetSDWSource redirects descriptor retrieval to src, a read-only
// descriptor view; nil restores descriptor-segment fetches through
// core. While a source is installed the associative memory and the
// shootdown queue are bypassed entirely: an immutable source cannot go
// stale, so there is nothing to cache coherently or invalidate. The
// MMU must be quiescent (owned, between references) when the source
// changes.
func (u *MMU) SetSDWSource(src SDWSource) {
	u.source = src
}

// MMU is one processor's memory management unit. It is owned by a
// single goroutine (its processor); the only cross-goroutine traffic is
// the shootdown queue, which remote members post under its own lock.
type MMU struct {
	// Mem is the physical storage beneath the unit: flat core, the
	// race-safe shared store (mem.Atomic), or a demand-paged space
	// (internal/paging) — anything satisfying mem.Store slots beneath
	// the translation layer unchanged.
	Mem mem.Store

	dbr    seg.DBR
	opt    Options
	sink   Sink
	cycles *uint64

	cache  []cacheEntry
	mask   uint32
	stats  CacheStats
	source SDWSource

	// Shootdown plumbing (see group.go). shootGen is bumped by remote
	// members after posting to pending; the owner compares it against
	// seenGen on each cached fetch — an atomic load, no lock — and
	// drains pending only on mismatch.
	group    *Group
	shootGen atomic.Uint64
	seenGen  uint64
	pending  pendingShootdowns

	ownCycles uint64 // charge target when no external counter is attached
}

// New returns an MMU over storage m. It panics if Options.Check
// rejects opt (a construction-time programming error, like a
// non-positive memory size); callers wiring options from run-time
// configuration should call Options.Check themselves and report the
// error.
func New(m mem.Store, opt Options) *MMU {
	if err := opt.Check(); err != nil {
		panic(err.Error())
	}
	u := &MMU{Mem: m, opt: opt, sink: opt.Sink}
	if u.sink == nil {
		u.sink = Disabled
	}
	if opt.CacheSize > 0 {
		u.cache = make([]cacheEntry, opt.CacheSize)
		u.mask = uint32(opt.CacheSize - 1)
	}
	u.cycles = &u.ownCycles
	return u
}

// AttachCycles redirects cycle charges into the given counter (the
// processor's running total). The MMU must be quiescent.
func (u *MMU) AttachCycles(c *uint64) {
	if c == nil {
		c = &u.ownCycles
	}
	u.cycles = c
}

// Cycles returns the privately accumulated cycle count (zero when the
// unit charges an attached external counter).
func (u *MMU) Cycles() uint64 { return u.ownCycles }

// SetSink installs the trace sink; nil disables tracing.
func (u *MMU) SetSink(s Sink) {
	if s == nil {
		s = Disabled
	}
	u.sink = s
}

// Sink returns the installed trace sink (never nil).
func (u *MMU) Sink() Sink { return u.sink }

// Validating reports whether ring/flag validation is enabled (false
// under the T5 ablation).
func (u *MMU) Validating() bool { return u.opt.Validate }

// CacheSize returns the number of associative registers (0 = disabled).
func (u *MMU) CacheSize() int { return len(u.cache) }

// DBR returns the current descriptor base register.
func (u *MMU) DBR() seg.DBR { return u.dbr }

// SetDBR loads the descriptor base register and flushes the associative
// memory: a different descriptor segment invalidates every cached SDW.
func (u *MMU) SetDBR(d seg.DBR) {
	u.dbr = d
	u.Flush()
}

// Table returns the descriptor segment accessor for the current DBR.
func (u *MMU) Table() seg.Table { return seg.Table{Mem: u.Mem, DBR: u.dbr} }

// Flush invalidates every associative register.
func (u *MMU) Flush() {
	if len(u.cache) == 0 {
		return
	}
	for i := range u.cache {
		u.cache[i].valid = false
	}
	u.stats.Flushes++
}

// CacheStats returns the hit/miss/invalidation counters (zero when the
// associative memory is disabled).
func (u *MMU) CacheStats() CacheStats { return u.stats }

// FetchSDW retrieves the SDW for segno: from the installed SDWSource
// when one is set (see SetSDWSource), otherwise through the
// associative memory and the descriptor segment in core. The error
// return is a physical memory fault (simulator integrity problem),
// never an access issue — absent segments come back with Present false
// and the caller raises the architectural trap.
//
//ring:hotpath
func (u *MMU) FetchSDW(segno uint32) (seg.SDW, error) {
	if u.source != nil {
		// A snapshot lookup is as cheap as an associative hit: no
		// descriptor-segment read, so no SDWMiss charge.
		return u.source.LookupSDW(segno)
	}
	if len(u.cache) == 0 {
		*u.cycles += u.opt.Costs.SDWMiss // every reference reads the descriptor segment
		return u.Table().Fetch(segno)
	}
	if g := u.shootGen.Load(); g != u.seenGen {
		u.applyShootdowns(g)
	}
	e := &u.cache[segno&u.mask]
	if e.valid && e.segno == segno {
		u.stats.Hits++
		return e.sdw, nil
	}
	u.stats.Misses++
	*u.cycles += u.opt.Costs.SDWMiss
	sdw, err := u.Table().Fetch(segno)
	if err != nil {
		return seg.SDW{}, err
	}
	*e = cacheEntry{valid: true, segno: segno, sdw: sdw}
	return sdw, nil
}

// StoreSDW writes an SDW through the current descriptor segment and
// keeps every associative memory coherent: the local cached copy is
// invalidated directly, and when the MMU belongs to a Group the edit is
// shot down to every other member. All run-time descriptor edits by
// supervisor software go through here.
func (u *MMU) StoreSDW(segno uint32, sdw seg.SDW) error {
	if err := u.Table().Store(segno, sdw); err != nil {
		return err
	}
	u.invalidate(segno)
	if u.group != nil {
		u.group.shootdown(u, segno)
	}
	return nil
}

// invalidate drops the cached copy of segno, if any.
func (u *MMU) invalidate(segno uint32) {
	if len(u.cache) == 0 {
		return
	}
	e := &u.cache[segno&u.mask]
	if e.valid && e.segno == segno {
		e.valid = false
		u.stats.Invalidations++
	}
}

// ---- Access validation (Figures 4, 5, 6 and 7) ----
//
// Each check charges the validation cost and honours the ablation
// switch: with validation off, presence and bounds are still enforced
// (via core.CheckBound) but brackets, flags and gates are not.

// CheckRead validates a read at (segno|wordno) with respect to the
// effective ring.
func (u *MMU) CheckRead(v core.SDWView, segno, wordno uint32, ring core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, ring)
	}
	viol := core.CheckRead(v, wordno, ring)
	if u.sink.Enabled() {
		u.traceValidate(traceRead, ring, segno, wordno, viol)
	}
	return viol
}

// CheckWrite validates a write at (segno|wordno) with respect to the
// effective ring.
func (u *MMU) CheckWrite(v core.SDWView, segno, wordno uint32, ring core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, ring)
	}
	viol := core.CheckWrite(v, wordno, ring)
	if u.sink.Enabled() {
		u.traceValidate(traceWrite, ring, segno, wordno, viol)
	}
	return viol
}

// CheckFetch validates the instruction fetch (Figure 4) against the
// ring of execution.
func (u *MMU) CheckFetch(v core.SDWView, wordno uint32, ring core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, ring)
	}
	return core.CheckFetch(v, wordno, ring)
}

// CheckTransfer performs the advance check of Figure 7 for a transfer
// to (segno|wordno): execRing is the ring of execution, effRing the
// effective ring of the target address.
func (u *MMU) CheckTransfer(v core.SDWView, segno, wordno uint32, execRing, effRing core.Ring) *core.Violation {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.CheckBound(v, wordno, execRing)
	}
	viol := core.CheckTransfer(v, wordno, execRing, effRing)
	if u.sink.Enabled() {
		u.traceValidate(traceTransfer, effRing, segno, wordno, viol)
	}
	return viol
}

// DecideCall evaluates the CALL decision of Figure 8, honouring the
// ablation switch: with validation off, a violation degrades to a
// bounds-checked same-ring transfer, exactly as if the ring hardware
// were absent.
func (u *MMU) DecideCall(v core.SDWView, wordno uint32, execRing, effRing core.Ring, sameSegment bool) (core.CallDecision, *core.Violation) {
	decision, viol := core.DecideCall(v, wordno, execRing, effRing, sameSegment)
	if viol == nil || u.opt.Validate {
		return decision, viol
	}
	if bviol := core.CheckBound(v, wordno, execRing); bviol != nil {
		return core.CallDecision{}, bviol
	}
	return core.CallDecision{Outcome: core.CallSameRing, NewRing: execRing}, nil
}

// DecideReturn evaluates the RETURN decision of Figure 9 under the same
// ablation rule as DecideCall.
func (u *MMU) DecideReturn(v core.SDWView, wordno uint32, execRing, effRing core.Ring) (core.ReturnDecision, *core.Violation) {
	decision, viol := core.DecideReturn(v, wordno, execRing, effRing)
	if viol == nil || u.opt.Validate {
		return decision, viol
	}
	if bviol := core.CheckBound(v, wordno, execRing); bviol != nil {
		return core.ReturnDecision{}, bviol
	}
	return core.ReturnDecision{Outcome: core.ReturnSameRing, NewRing: effRing}, nil
}

// Trace detail strings are precomputed so that recording a validation
// event never concatenates (and therefore never allocates): the sink
// contract is "cheap when enabled", so a counting sink may stay enabled
// on a hot reference path.
const (
	traceRead = iota
	traceWrite
	traceTransfer
)

var traceOK [3]string
var traceViol [3][core.ViolationKindCount]string

func init() {
	for i, what := range [3]string{"read", "write", "transfer"} {
		traceOK[i] = what + " ok"
		for k := range traceViol[i] {
			traceViol[i][k] = what + " violation: " + core.ViolationKind(k).String()
		}
	}
}

// traceValidateKind records one validation outcome using the
// precomputed detail tables; what is one of traceRead/Write/Transfer.
//
//ring:hotpath
func (u *MMU) traceValidateKind(what int, ring core.Ring, segno, wordno uint32, kind core.ViolationKind) {
	detail := traceOK[what]
	if kind != core.ViolationNone && int(kind) < len(traceViol[what]) {
		detail = traceViol[what][kind]
	}
	u.sink.Record(trace.Event{Kind: trace.KindValidate, Ring: ring, Segno: segno, Wordno: wordno, Detail: detail})
}

func (u *MMU) traceValidate(what int, ring core.Ring, segno, wordno uint32, viol *core.Violation) {
	kind := core.ViolationNone
	if viol != nil {
		kind = viol.Kind
	}
	u.traceValidateKind(what, ring, segno, wordno, kind)
}

// ---- Allocation-free query variants ----
//
// Access, Call and Return are the query fast path: one SDW fetch
// through the associative memory (or the SDWSource) plus the bracket
// check, with the outcome returned as a bare core.ViolationKind instead
// of an allocated *core.Violation. They honour the same cost model,
// tracing and T5 ablation rules as the Check*/Decide* forms; the error
// return is a physical memory fault only, never an access outcome.

// AccessView validates one reference of the given kind against an
// already-fetched view, allocation-free. Callers that do not hold the
// view use Access, which performs the SDW fetch too.
//
//ring:hotpath
func (u *MMU) AccessView(v core.SDWView, segno, wordno uint32, ring core.Ring, kind core.AccessKind) core.ViolationKind {
	*u.cycles += u.opt.Costs.Validate
	if !u.opt.Validate {
		return core.BoundCheck(v, wordno)
	}
	var k core.ViolationKind
	switch kind {
	case core.AccessRead:
		k = core.ReadCheck(v, wordno, ring)
		if u.sink.Enabled() {
			u.traceValidateKind(traceRead, ring, segno, wordno, k)
		}
	case core.AccessWrite:
		k = core.WriteCheck(v, wordno, ring)
		if u.sink.Enabled() {
			u.traceValidateKind(traceWrite, ring, segno, wordno, k)
		}
	default: // core.AccessExecute; the fetch check is untraced, as in CheckFetch
		k = core.FetchCheck(v, wordno, ring)
	}
	return k
}

// Access validates one reference end to end — SDW retrieval through the
// associative memory, then the kind's bracket check — without
// allocating. ring is the effective ring for read/write and the ring of
// execution for execute.
//
//ring:hotpath
func (u *MMU) Access(segno, wordno uint32, ring core.Ring, kind core.AccessKind) (core.ViolationKind, error) {
	sdw, err := u.FetchSDW(segno)
	if err != nil {
		return core.ViolationNone, err
	}
	return u.AccessView(sdw.View(), segno, wordno, ring, kind), nil
}

// Call evaluates the CALL decision of Figure 8 end to end, allocation-
// free: SDW retrieval, then core.CallCheck under the same ablation rule
// as DecideCall.
//
//ring:hotpath
func (u *MMU) Call(segno, wordno uint32, execRing, effRing core.Ring, sameSegment bool) (core.CallDecision, core.ViolationKind, error) {
	sdw, err := u.FetchSDW(segno)
	if err != nil {
		return core.CallDecision{}, core.ViolationNone, err
	}
	v := sdw.View()
	decision, k := core.CallCheck(v, wordno, execRing, effRing, sameSegment)
	if k == core.ViolationNone || u.opt.Validate {
		return decision, k, nil
	}
	if bk := core.BoundCheck(v, wordno); bk != core.ViolationNone {
		return core.CallDecision{}, bk, nil
	}
	return core.CallDecision{Outcome: core.CallSameRing, NewRing: execRing}, core.ViolationNone, nil
}

// Return evaluates the RETURN decision of Figure 9 end to end,
// allocation-free, under the same ablation rule as DecideReturn.
//
//ring:hotpath
func (u *MMU) Return(segno, wordno uint32, execRing, effRing core.Ring) (core.ReturnDecision, core.ViolationKind, error) {
	sdw, err := u.FetchSDW(segno)
	if err != nil {
		return core.ReturnDecision{}, core.ViolationNone, err
	}
	v := sdw.View()
	decision, k := core.ReturnCheck(v, wordno, execRing, effRing)
	if k == core.ViolationNone || u.opt.Validate {
		return decision, k, nil
	}
	if bk := core.BoundCheck(v, wordno); bk != core.ViolationNone {
		return core.ReturnDecision{}, bk, nil
	}
	return core.ReturnDecision{Outcome: core.ReturnSameRing, NewRing: effRing}, core.ViolationNone, nil
}

// ---- Translation and core access ----

// Read fetches the word at wordno of the segment described by s. The
// access must already be validated: bounds were checked
// architecturally, so errors here are simulator integrity faults.
func (u *MMU) Read(s seg.SDW, wordno uint32) (word.Word, error) {
	return u.Mem.Read(seg.Translate(s, wordno))
}

// Write stores w at wordno of the segment described by s. The access
// must already be validated.
func (u *MMU) Write(s seg.SDW, wordno uint32, w word.Word) error {
	return u.Mem.Write(seg.Translate(s, wordno), w)
}
