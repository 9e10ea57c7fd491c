package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

func drawKeys(g *Gen, n int) []tupleKey {
	var keys []tupleKey
	for len(keys) < n {
		b := g.Next()
		for i := range b {
			keys = append(keys, keyOf(&b[i]))
		}
	}
	return keys[:n]
}

func TestStreamIsFixedBySeed(t *testing.T) {
	for _, w := range workloads {
		img := GenImage(7, w.segments)
		a := NewGen(img, w.genConfig(7), 99)
		b := NewGen(GenImage(7, w.segments), w.genConfig(7), 99)
		for n := 0; n < 500; n++ {
			x, y := a.Next(), b.Next()
			if len(x) != len(y) {
				t.Fatalf("%s: batch %d: lengths %d and %d", w.name, n, len(x), len(y))
			}
			for i := range x {
				if keyOf(&x[i]) != keyOf(&y[i]) {
					t.Fatalf("%s: batch %d query %d differs: %+v vs %+v", w.name, n, i, x[i], y[i])
				}
			}
		}
		c := NewGen(img, w.genConfig(7), 100)
		if keyOf(&a.Next()[0]) == keyOf(&c.Next()[0]) && keyOf(&a.Next()[0]) == keyOf(&c.Next()[0]) {
			t.Errorf("%s: streams with different seeds agree", w.name)
		}
	}
}

func TestImageCoversEveryClass(t *testing.T) {
	for _, n := range []int{64, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			img := GenImage(seed, n)
			flags := map[int]bool{}
			rels := map[int]bool{}
			gates := map[int]bool{}
			combos := map[[3]int]bool{}
			for segno, v := range img.Views {
				if err := v.Validate(); err != nil {
					t.Fatalf("segment %d: %v", segno, err)
				}
				f := 0
				for i, on := range []bool{v.Read, v.Write, v.Execute} {
					if on {
						f |= 1 << i
					}
				}
				rel := relDistinct
				switch lowEq, highEq := v.R1 == v.R2, v.R2 == v.R3; {
				case lowEq && highEq:
					rel = relAllEqual
				case highEq:
					rel = relLowWrite
				case lowEq:
					rel = relGateExt
				}
				g := gatesPartial
				switch v.GateCount {
				case 0:
					g = gatesNone
				case 1:
					g = gatesOne
				case v.Bound:
					g = gatesAll
				}
				flags[f], rels[rel], gates[g] = true, true, true
				combos[[3]int{f, rel, g}] = true
			}
			if len(flags) != 8 || len(rels) != numRelations || len(gates) != numGateClasses {
				t.Errorf("%d segments, seed %d: %d flag sets, %d relations, %d gate classes",
					n, seed, len(flags), len(rels), len(gates))
			}
			if n == 256 && len(combos) != 8*numRelations*numGateClasses {
				t.Errorf("seed %d: 256 segments cover %d of %d combinations", seed, len(combos), 8*numRelations*numGateClasses)
			}
		}
	}
}

// expectedDistinct is the expected number of distinct tuples among n
// independent draws, given each tuple's probability (grouped as count
// tuples of probability p each).
type tupleClass struct {
	count float64
	p     float64
}

func expectedDistinct(classes []tupleClass, n int) float64 {
	var e float64
	for _, c := range classes {
		e += c.count * -math.Expm1(float64(n)*math.Log1p(-c.p))
	}
	return e
}

// uniformClasses enumerates the uniform stream's tuple space by
// probability, straight from the generator's documented draws: op by
// mix weight, ring, then per op the segment, word number up to the
// bound, access kind, same-segment flag (1 in 8), effective ring (none
// half the time, else uniform at or above the ring) and chains of one
// to three steps, each a pointer register (1 in 3) or an indirect word.
func uniformClasses(img *Image, m Mix) []tupleClass {
	tot := float64(m.total())
	segs := float64(len(img.Views))
	var cs []tupleClass
	for _, v := range img.Views {
		words := float64(v.Bound + 1)
		for r := 0; r < core.NumRings; r++ {
			// One word of one segment at ring r.
			base := 1.0 / 8 / segs / words
			cs = append(cs, tupleClass{3 * words, float64(m.Access) / tot * base / 3})
			above := float64(core.NumRings - r)
			for _, same := range []float64{1.0 / 8, 7.0 / 8} {
				cs = append(cs, tupleClass{words, float64(m.Call) / tot * base * same / 2})
				cs = append(cs, tupleClass{above * words, float64(m.Call) / tot * base * same / 2 / above})
			}
			cs = append(cs, tupleClass{words, float64(m.Return) / tot * base / 2})
			cs = append(cs, tupleClass{above * words, float64(m.Return) / tot * base / 2 / above})
		}
	}
	// Effring chains: every shape (a sequence of PR and indirect steps)
	// holds tuples of equal probability.
	var shapes func(prefix []bool)
	shapes = func(prefix []bool) {
		if len(prefix) > 0 {
			count, p := 8.0, float64(m.EffRing)/tot/8/maxChain
			for _, pr := range prefix {
				if pr {
					count, p = count*8, p/3/8
				} else {
					count, p = count*8*segs, p*2/3/8/segs
				}
			}
			cs = append(cs, tupleClass{count, p})
		}
		if len(prefix) < maxChain {
			shapes(append(append([]bool(nil), prefix...), true))
			shapes(append(append([]bool(nil), prefix...), false))
		}
	}
	shapes(nil)
	return cs
}

func TestUniformDistinctTuplesMatchDistribution(t *testing.T) {
	w, _ := findWorkload("http-json")
	img := GenImage(3, w.segments)
	for _, n := range []int{2000, 20000, 100000} {
		got := 0
		seen := map[tupleKey]bool{}
		for _, k := range drawKeys(NewGen(img, w.genConfig(3), 5), n) {
			if !seen[k] {
				seen[k] = true
				got++
			}
		}
		want := expectedDistinct(uniformClasses(img, w.gen.Mix), n)
		t.Logf("%d uniform draws: %d distinct tuples, expected %.1f", n, got, want)
		if math.Abs(float64(got)-want) > 4*math.Sqrt(want) {
			t.Errorf("%d uniform draws: %d distinct tuples, want %.0f", n, got, want)
		}
	}
}

func TestZipfDistinctTuplesMatchDistribution(t *testing.T) {
	w, _ := findWorkload("lease-churn")
	cfg := w.genConfig(4)
	img := GenImage(4, w.segments)
	g := NewGen(img, cfg, 11)
	// Each tuple's probability is the Zipf mass of the ranks mapping to
	// it: p(k) ∝ (v+k)^-s over the working set.
	var norm float64
	for k := uint64(0); k < cfg.WorkingSet; k++ {
		norm += math.Pow(cfg.ZipfV+float64(k), -cfg.ZipfS)
	}
	mass := map[tupleKey]float64{}
	for k := uint64(0); k < cfg.WorkingSet; k++ {
		r := g.rankStream(k)
		g.query(&r, 0)
		mass[keyOf(&g.buf[0])] += math.Pow(cfg.ZipfV+float64(k), -cfg.ZipfS) / norm
	}
	classes := make([]tupleClass, 0, len(mass))
	for _, p := range mass {
		classes = append(classes, tupleClass{1, p})
	}
	for _, n := range []int{5000, 50000} {
		seen := map[tupleKey]bool{}
		for _, k := range drawKeys(NewGen(img, cfg, 12), n) {
			seen[k] = true
		}
		want := expectedDistinct(classes, n)
		t.Logf("%d Zipf draws: %d distinct tuples, expected %.1f", n, len(seen), want)
		if got := float64(len(seen)); math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("%d Zipf draws: %.0f distinct tuples, want %.0f", n, got, want)
		}
	}
	// The working set bounds the tuples a stream can reach.
	if len(mass) > int(cfg.WorkingSet) {
		t.Errorf("%d tuples from a working set of %d", len(mass), cfg.WorkingSet)
	}
}

func TestBatchSizes(t *testing.T) {
	for _, w := range workloads {
		g := NewGen(GenImage(1, w.segments), w.genConfig(1), 1)
		seen := map[int]bool{}
		for n := 0; n < 2000; n++ {
			b := g.Next()
			if len(b) < w.gen.BatchMin || len(b) > w.gen.BatchMax {
				t.Fatalf("%s: batch of %d outside [%d, %d]", w.name, len(b), w.gen.BatchMin, w.gen.BatchMax)
			}
			seen[len(b)] = true
			for i := range b {
				if b[i].Op == service.OpEffRing && (len(b[i].Chain) == 0 || len(b[i].Chain) > maxChain) {
					t.Fatalf("%s: chain of %d steps", w.name, len(b[i].Chain))
				}
			}
		}
		if len(seen) != w.gen.BatchMax-w.gen.BatchMin+1 {
			t.Errorf("%s: drew %d batch sizes, want every size in [%d, %d]", w.name, len(seen), w.gen.BatchMin, w.gen.BatchMax)
		}
	}
}

// tupleKey is a comparable image of a query, for counting distinct
// tuples.
type tupleKey struct {
	op          service.Op
	ring, eff   core.Ring
	hasEff      bool
	kind        core.AccessKind
	segno       uint32
	wordno      uint32
	sameSegment bool
	chain       [maxChain]service.ChainStep
	chainLen    int
}

func keyOf(q *service.Query) tupleKey {
	k := tupleKey{op: q.Op, ring: q.Ring, kind: q.Kind, segno: q.Segno, wordno: q.Wordno,
		sameSegment: q.SameSegment, chainLen: len(q.Chain)}
	if q.EffRing != nil {
		k.hasEff, k.eff = true, *q.EffRing
	}
	copy(k.chain[:], q.Chain)
	return k
}
