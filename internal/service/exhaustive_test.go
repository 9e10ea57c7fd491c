package service

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/seg"
)

// This file checks the service's decision procedure over the whole
// finite decision space, end to end through Service.SubmitInto. The
// reference is an mmu.MMU validating over a static SDW table built
// from the same definitions: every bracket triple with R1 ≤ R2 ≤ R3,
// every RWE flag set, bounds and gate counts at and around each
// boundary (up to seg.MaxBound and seg.MaxGate), every caller and
// effective ring, read/write/execute access, same- and cross-segment
// CALL, RETURN, and effective-ring chains of one and two indirect
// steps with and without a pointer-register step. Absent segments are
// covered three ways: revoked, never defined below MaxSegments, and
// beyond the descriptor segment.
//
// A store holds at most MaxSegments descriptors, so the space is
// loaded in chunks, one store per chunk. Before a chunk is checked,
// some of its segments are revoked and restored, so the shard epochs
// the decisions report differ from shard to shard; the test predicts
// each one from its own mutation count.

// staticTable is the reference's descriptor source: a fixed table with
// the architectural absence rule (segment numbers beyond it are absent).
type staticTable []seg.SDW

func (t staticTable) LookupSDW(segno uint32) (seg.SDW, error) {
	if int(segno) >= len(t) {
		return seg.SDW{}, nil
	}
	return t[segno], nil
}

// exhaustiveShape is one bound/gate shape and the word numbers at and
// around its boundaries.
type exhaustiveShape struct {
	size, gates uint32
	words       []uint32
}

var exhaustiveShapes = []exhaustiveShape{
	{1, 0, []uint32{0, 1, 2}},
	{3, 1, []uint32{0, 1, 2, 3, 4}},
	{3, 3, []uint32{0, 2, 3, 4}},
	{seg.MaxBound, seg.MaxGate, []uint32{0, seg.MaxGate - 1, seg.MaxGate, seg.MaxGate + 1,
		seg.MaxBound - 1, seg.MaxBound, seg.MaxBound + 1}},
}

// exhaustiveDesc is one descriptor of the enumeration.
type exhaustiveDesc struct {
	def   Segment
	words []uint32
	// head marks the descriptors that also start two-step and
	// pointer-register chains: an indirect step reads word 0 and
	// consults only the present and read flags and R1/R2, so one shape
	// and the flag sets with W and E off cover it.
	head bool
}

func exhaustiveDescriptors() []exhaustiveDesc {
	var out []exhaustiveDesc
	for r1 := core.Ring(0); r1 < core.NumRings; r1++ {
		for r2 := r1; r2 < core.NumRings; r2++ {
			for r3 := r2; r3 < core.NumRings; r3++ {
				for rwe := 0; rwe < 8; rwe++ {
					for si, sh := range exhaustiveShapes {
						out = append(out, exhaustiveDesc{
							def: Segment{Size: int(sh.size), Gates: sh.gates,
								Read: rwe&4 != 0, Write: rwe&2 != 0, Execute: rwe&1 != 0,
								Brackets: core.Brackets{R1: r1, R2: r2, R3: r3}},
							words: sh.words,
							head:  si == 0 && rwe&3 == 0,
						})
					}
				}
			}
		}
	}
	return out
}

const (
	exhaustiveChunk = 240 // descriptors per store; the rest of the 256 stay undefined
	exhaustiveBatch = 512
	exhaustiveLimit = 20 // mismatches reported before giving up
)

// exhaustiveRun checks one chunk's queries in batches.
type exhaustiveRun struct {
	t      *testing.T
	svc    *Service
	ref    *mmu.MMU
	shards uint32
	epochs []uint64 // predicted shard epochs

	qs    []Query
	want  []Decision
	got   []Decision
	steps []ChainStep // backing store of the pending batch's chains
	n     int
	fails int
}

func (r *exhaustiveRun) add(q Query, want Decision) {
	r.qs = append(r.qs, q)
	r.want = append(r.want, want)
	if len(r.qs) == exhaustiveBatch {
		r.flush()
	}
}

func (r *exhaustiveRun) flush() {
	if len(r.qs) == 0 {
		return
	}
	got := r.got[:len(r.qs)]
	if err := r.svc.SubmitInto(context.Background(), r.qs, got); err != nil {
		r.t.Fatalf("SubmitInto: %v", err)
	}
	for i := range r.qs {
		if got[i] != r.want[i] {
			r.fails++
			r.t.Errorf("query %+v (chain %v):\n got %+v\nwant %+v", r.qs[i], r.qs[i].Chain, got[i], r.want[i])
			if r.fails >= exhaustiveLimit {
				r.t.FailNow()
			}
		}
	}
	r.n += len(r.qs)
	r.qs, r.want, r.steps = r.qs[:0], r.want[:0], r.steps[:0]
}

// chain copies steps into the batch's backing store.
func (r *exhaustiveRun) chain(steps ...ChainStep) []ChainStep {
	i := len(r.steps)
	r.steps = append(r.steps, steps...)
	return r.steps[i:len(r.steps):len(r.steps)]
}

// stamp is the reference's shard and epoch for a single-segment query.
func (r *exhaustiveRun) stamp(segno uint32) Decision {
	sh := int(segno % r.shards)
	return Decision{Shard: sh, VersionLo: r.epochs[sh], VersionHi: r.epochs[sh]}
}

func setKind(d *Decision, k core.ViolationKind) {
	if k == core.ViolationNone {
		d.Allowed = true
		return
	}
	d.Violation = k.String()
	d.ViolationKind = k
}

var exhaustiveRings = func() (rs [core.NumRings]Ring) {
	for i := range rs {
		rs[i] = Ring(i)
	}
	return rs
}()

// segment enumerates access, call, return and one-step chains against
// segno, at each of the given word numbers.
func (r *exhaustiveRun) segment(segno uint32, words []uint32) {
	for _, w := range words {
		for ring := Ring(0); ring < core.NumRings; ring++ {
			for _, kind := range []core.AccessKind{core.AccessRead, core.AccessWrite, core.AccessExecute} {
				k, err := r.ref.Access(segno, w, ring, kind)
				if err != nil {
					r.t.Fatal(err)
				}
				want := r.stamp(segno)
				setKind(&want, k)
				r.add(Query{Op: OpAccess, Ring: ring, Segno: segno, Wordno: w, Kind: kind}, want)
			}
			for eff := Ring(0); eff < core.NumRings; eff++ {
				effp := &exhaustiveRings[eff]
				for _, same := range []bool{false, true} {
					dec, k, err := r.ref.Call(segno, w, ring, eff, same)
					if err != nil {
						r.t.Fatal(err)
					}
					want := r.stamp(segno)
					setKind(&want, k)
					if k == core.ViolationNone {
						want.Outcome = dec.Outcome.String()
						want.NewRing = dec.NewRing
						want.Trapped = dec.Outcome == core.CallUpwardTrap
					}
					r.add(Query{Op: OpCall, Ring: ring, Segno: segno, Wordno: w, EffRing: effp, SameSegment: same}, want)
				}
				dec, k, err := r.ref.Return(segno, w, ring, eff)
				if err != nil {
					r.t.Fatal(err)
				}
				want := r.stamp(segno)
				setKind(&want, k)
				if k == core.ViolationNone {
					want.Outcome = dec.Outcome.String()
					want.NewRing = dec.NewRing
					want.Trapped = dec.Outcome == core.ReturnDownwardTrap
				}
				r.add(Query{Op: OpReturn, Ring: ring, Segno: segno, Wordno: w, EffRing: effp}, want)
			}
		}
	}
	for start := Ring(0); start < core.NumRings; start++ {
		for ind := Ring(0); ind < core.NumRings; ind++ {
			r.addChain(start, ChainStep{Ring: ind, Segno: segno})
		}
	}
}

// head enumerates two-step chains from segno through each of seconds,
// and chains pairing an indirect step through segno with a
// pointer-register step on either side.
func (r *exhaustiveRun) head(segno uint32, seconds []uint32) {
	for start := Ring(0); start < core.NumRings; start++ {
		for a := Ring(0); a < core.NumRings; a++ {
			for b := Ring(0); b < core.NumRings; b++ {
				for _, s2 := range seconds {
					r.addChain(start, ChainStep{Ring: a, Segno: segno}, ChainStep{Ring: b, Segno: s2})
				}
				r.addChain(start, ChainStep{PR: true, Ring: a}, ChainStep{Ring: b, Segno: segno})
				r.addChain(start, ChainStep{Ring: a, Segno: segno}, ChainStep{PR: true, Ring: b})
			}
		}
	}
}

// addChain queues an effring query with the reference's answer: the
// reference unit reads each indirect word (word 0 of its segment) at
// the running effective ring, and the ring folds as Figure 5 says.
func (r *exhaustiveRun) addChain(start Ring, steps ...ChainStep) {
	want := Decision{Shard: -1}
	var mask uint64
	for _, s := range steps {
		if !s.PR {
			mask |= 1 << (s.Segno % r.shards)
		}
	}
	if bits.OnesCount64(mask) == 1 {
		want.Shard = bits.TrailingZeros64(mask)
	}
	for sh, e := range r.epochs {
		if mask == 0 || mask&(1<<sh) != 0 {
			want.VersionLo += e
		}
	}
	want.VersionHi = want.VersionLo
	eff := start
	denied := false
	for _, s := range steps {
		if s.PR {
			eff = core.MaxRing(eff, s.Ring)
			continue
		}
		sdw, err := r.ref.FetchSDW(s.Segno)
		if err != nil {
			r.t.Fatal(err)
		}
		if k := r.ref.AccessView(sdw.View(), s.Segno, 0, eff, core.AccessRead); k != core.ViolationNone {
			setKind(&want, k)
			denied = true
			break
		}
		eff = core.MaxRing(core.MaxRing(eff, s.Ring), sdw.Brackets.R1)
	}
	if !denied {
		want.Allowed = true
		want.NewRing = eff
	}
	r.add(Query{Op: OpEffRing, Ring: start, Chain: r.chain(steps...)}, want)
}

// TestExhaustiveDecisionsAgainstMMU is the in-process conformance
// table: every decision the service can be asked about, compared field
// by field (allowed, violation, outcome, new ring, trapped, shard and
// epoch) with the reference unit's answer.
func TestExhaustiveDecisionsAgainstMMU(t *testing.T) {
	descs := exhaustiveDescriptors()
	if len(descs) != 120*8*len(exhaustiveShapes) {
		t.Fatalf("%d descriptors, want %d", len(descs), 120*8*len(exhaustiveShapes))
	}
	total := 0
	for c := 0; c*exhaustiveChunk < len(descs); c++ {
		chunk := descs[c*exhaustiveChunk : min((c+1)*exhaustiveChunk, len(descs))]
		defs := make([]Segment, 0, len(chunk)+1)
		for i, d := range chunk {
			d.def.Name = fmt.Sprintf("s%d", i)
			defs = append(defs, d.def)
		}
		// One more segment, revoked below: an absent descriptor whose
		// other fields are intact.
		revoked := uint32(len(defs))
		defs = append(defs, Segment{Name: "revoked", Size: 3, Gates: 1, Read: true, Write: true, Execute: true,
			Brackets: core.Brackets{R1: 0, R2: 7, R3: 7}})
		undefined := uint32(len(defs))

		st, err := NewStore(StoreConfig{}, defs)
		if err != nil {
			t.Fatalf("chunk %d: NewStore: %v", c, err)
		}
		svc, err := New(st, Config{Workers: 1})
		if err != nil {
			t.Fatalf("chunk %d: New: %v", c, err)
		}
		r := &exhaustiveRun{t: t, svc: svc, shards: uint32(st.Shards()),
			epochs: make([]uint64, st.Shards()),
			got:    make([]Decision, exhaustiveBatch), steps: make([]ChainStep, 0, 2*exhaustiveBatch)}
		table := make(staticTable, len(defs))
		for i, d := range defs {
			table[i] = seg.SDW{Present: true, Bound: uint32(d.Size), Read: d.Read, Write: d.Write,
				Execute: d.Execute, Brackets: d.Brackets, Gate: d.Gates}
		}
		table[revoked].Present = false
		r.ref = mmu.New(nil, mmu.Options{Validate: true})
		r.ref.SetSDWSource(table)

		// Edit the store so the shards' epochs differ: a revoke and a
		// restore (two publications each) on every seventh segment, then
		// the revocation.
		for segno := uint32(c % 7); segno < revoked; segno += 7 {
			if err := st.Revoke(segno); err != nil {
				t.Fatal(err)
			}
			if err := st.Restore(segno); err != nil {
				t.Fatal(err)
			}
			r.epochs[segno%r.shards] += 4
		}
		if err := st.Revoke(revoked); err != nil {
			t.Fatal(err)
		}
		r.epochs[revoked%r.shards] += 2

		absent := []uint32{undefined, MaxSegments - 1, MaxSegments, seg.MaxSegno, seg.MaxSegno + 1}
		seconds := []uint32{0, revoked / 3, revoked / 2, revoked - 1, revoked, undefined, MaxSegments}
		for i, d := range chunk {
			r.segment(uint32(i), d.words)
			if d.head {
				r.head(uint32(i), seconds)
			}
		}
		r.segment(revoked, exhaustiveShapes[1].words)
		r.head(revoked, seconds)
		for _, segno := range absent {
			r.segment(segno, []uint32{0})
			r.head(segno, seconds)
		}
		// Chains with no indirect step consult no shard: the interval is
		// the store-wide version.
		for start := Ring(0); start < core.NumRings; start++ {
			r.addChain(start)
			for p := Ring(0); p < core.NumRings; p++ {
				r.addChain(start, ChainStep{PR: true, Ring: p})
			}
		}
		r.flush()
		svc.Close()
		total += r.n
	}
	t.Logf("%d decisions checked", total)
}
