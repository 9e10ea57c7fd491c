package main

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/core"
	"repro/internal/service"
)

// sm64 is a splitmix64 stream: the generator's only source of
// randomness besides the Zipf rank draw. It is tiny and copyable, so a
// Zipf rank can seed one to derive its tuple.
type sm64 struct{ s uint64 }

func (r *sm64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws from [0, n) by multiply-shift.
func (r *sm64) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// ring draws a ring in [lo, 7].
func (r *sm64) ring(lo core.Ring) core.Ring {
	return lo + core.Ring(r.intn(core.NumRings-int(lo)))
}

// deriveSeed mixes a run seed with a stream label, so every client,
// warm-up pass, supervisor and ladder sample draws an independent
// stream that is still fixed by the one seed.
func deriveSeed(seed int64, label string) uint64 {
	r := sm64{s: uint64(seed)}
	h := r.next()
	for _, c := range []byte(label) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return (&sm64{s: h}).next()
}

// Image is one generated protection image: the segment definitions the
// service loads and the descriptor view of each, by segment number.
type Image struct {
	Segs  []service.Segment
	Views []core.SDWView
}

// Bracket relations the image covers, one class each.
const (
	relAllEqual = iota // R1 = R2 = R3
	relLowWrite        // R1 < R2 = R3
	relGateExt         // R1 = R2 < R3
	relDistinct        // R1 < R2 < R3
	numRelations
)

// Gate-count classes the image covers.
const (
	gatesNone    = iota // no gate locations
	gatesOne            // exactly word 0
	gatesPartial        // some but not all words
	gatesAll            // every word a gate
	numGateClasses
)

// genBrackets draws a bracket triple in relation class rel.
func genBrackets(r *sm64, rel int) core.Brackets {
	for {
		b := core.Brackets{R1: r.ring(0), R2: r.ring(0), R3: r.ring(0)}
		// Sort the three draws, then keep them if they fall in class.
		if b.R1 > b.R2 {
			b.R1, b.R2 = b.R2, b.R1
		}
		if b.R2 > b.R3 {
			b.R2, b.R3 = b.R3, b.R2
		}
		if b.R1 > b.R2 {
			b.R1, b.R2 = b.R2, b.R1
		}
		lowEq, highEq := b.R1 == b.R2, b.R2 == b.R3
		switch {
		case rel == relAllEqual && lowEq && highEq,
			rel == relLowWrite && !lowEq && highEq,
			rel == relGateExt && lowEq && !highEq,
			rel == relDistinct && !lowEq && !highEq:
			return b
		}
	}
}

// GenImage builds an n-segment image from seed. Segment i of the
// unshuffled list takes flag set i%8, bracket relation (i/8)%4 and
// gate class ((i/8)+(i/32))%4, so 64 segments cover every flag set,
// relation and gate class, and 256 cover every combination of the
// three twice. The seed picks ring values, sizes and gate counts
// within each class, and shuffles segment numbers (and so shards).
func GenImage(seed int64, n int) *Image {
	r := sm64{s: deriveSeed(seed, "image")}
	type class struct{ flags, rel, gates int }
	classes := make([]class, n)
	for i := range classes {
		classes[i] = class{flags: i % 8, rel: (i / 8) % numRelations, gates: (i/8 + i/32) % numGateClasses}
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		classes[i], classes[j] = classes[j], classes[i]
	}
	img := &Image{Segs: make([]service.Segment, n), Views: make([]core.SDWView, n)}
	for segno, c := range classes {
		size := 4 + r.intn(61) // 4..64 words
		var gates uint32
		switch c.gates {
		case gatesOne:
			gates = 1
		case gatesPartial:
			gates = uint32(2 + r.intn(size-2))
		case gatesAll:
			gates = uint32(size)
		}
		s := service.Segment{
			Name:     fmt.Sprintf("s%03d", segno),
			Size:     size,
			Read:     c.flags&1 != 0,
			Write:    c.flags&2 != 0,
			Execute:  c.flags&4 != 0,
			Brackets: genBrackets(&r, c.rel),
			Gates:    gates,
		}
		img.Segs[segno] = s
		img.Views[segno] = core.SDWView{
			Present: true, Read: s.Read, Write: s.Write, Execute: s.Execute,
			Brackets: s.Brackets, GateCount: gates, Bound: uint32(size),
		}
	}
	return img
}

// Mix weighs the four query operations.
type Mix struct{ Access, Call, Return, EffRing int }

func (m Mix) total() int { return m.Access + m.Call + m.Return + m.EffRing }

func (m Mix) String() string {
	return fmt.Sprintf("access=%d,call=%d,return=%d,effring=%d", m.Access, m.Call, m.Return, m.EffRing)
}

// GenConfig shapes a query stream.
type GenConfig struct {
	Mix                Mix
	BatchMin, BatchMax int
	// Zipf, when set, draws each query as the tuple of a rank k in
	// [0, WorkingSet) with probability proportional to (ZipfV+k)^-ZipfS;
	// otherwise every query is a fresh uniform draw over the whole
	// tuple space.
	Zipf       bool
	ZipfS      float64
	ZipfV      float64
	WorkingSet uint64
	// TupleSeed fixes the rank → tuple map, so streams with different
	// seeds share one working set.
	TupleSeed uint64
}

// maxChain is the longest effective-ring chain the generator draws.
const maxChain = 3

// Gen streams seeded query batches over an image's tuple space:
// segment × ring × kind × word number up to the segment's size, plus
// call/return effective rings and effring chains. Batches are drawn as
// they are needed; the same seed gives the same stream.
type Gen struct {
	img  *Image
	cfg  GenConfig
	rng  sm64
	zipf *rand.Zipf

	buf    []service.Query
	effs   []core.Ring
	chains [][maxChain]service.ChainStep
}

// NewGen starts a stream over img from seed.
func NewGen(img *Image, cfg GenConfig, seed uint64) *Gen {
	g := &Gen{
		img:    img,
		cfg:    cfg,
		rng:    sm64{s: seed},
		buf:    make([]service.Query, cfg.BatchMax),
		effs:   make([]core.Ring, cfg.BatchMax),
		chains: make([][maxChain]service.ChainStep, cfg.BatchMax),
	}
	if cfg.Zipf {
		g.zipf = rand.NewZipf(rand.New(rand.NewSource(int64(g.rng.next()))), cfg.ZipfS, cfg.ZipfV, cfg.WorkingSet-1)
	}
	return g
}

// Next returns the next batch. The slice and the chains and effective
// rings its queries point at are reused by the following call.
func (g *Gen) Next() []service.Query {
	n := g.cfg.BatchMin
	if span := g.cfg.BatchMax - g.cfg.BatchMin; span > 0 {
		n += g.rng.intn(span + 1)
	}
	b := g.buf[:n]
	for i := range b {
		if g.zipf != nil {
			t := g.rankStream(g.zipf.Uint64())
			g.query(&t, i)
		} else {
			g.query(&g.rng, i)
		}
	}
	return b
}

// rankStream is the stream a Zipf rank's tuple is drawn from: fixed by
// the rank and the tuple seed alone.
func (g *Gen) rankStream(rank uint64) sm64 {
	return sm64{s: g.cfg.TupleSeed ^ (rank+1)*0xd1b54a32d192ed03}
}

// query draws slot i's query from r.
func (g *Gen) query(r *sm64, i int) {
	q := &g.buf[i]
	*q = service.Query{Ring: r.ring(0)}
	segs := len(g.img.Segs)
	pick := r.intn(g.cfg.Mix.total())
	m := g.cfg.Mix
	switch {
	case pick < m.Access:
		q.Op = service.OpAccess
		q.Kind = core.AccessKind(r.intn(3))
		q.Segno = uint32(r.intn(segs))
		q.Wordno = uint32(r.intn(int(g.img.Views[q.Segno].Bound) + 1))
	case pick < m.Access+m.Call:
		q.Op = service.OpCall
		q.Segno = uint32(r.intn(segs))
		q.Wordno = uint32(r.intn(int(g.img.Views[q.Segno].Bound) + 1))
		q.SameSegment = r.intn(8) == 0
		g.maybeEff(r, i)
	case pick < m.Access+m.Call+m.Return:
		q.Op = service.OpReturn
		q.Segno = uint32(r.intn(segs))
		q.Wordno = uint32(r.intn(int(g.img.Views[q.Segno].Bound) + 1))
		g.maybeEff(r, i)
	default:
		q.Op = service.OpEffRing
		steps := 1 + r.intn(maxChain)
		c := &g.chains[i]
		for k := 0; k < steps; k++ {
			if r.intn(3) == 0 {
				c[k] = service.ChainStep{PR: true, Ring: r.ring(0)}
			} else {
				c[k] = service.ChainStep{Ring: r.ring(0), Segno: uint32(r.intn(segs))}
			}
		}
		q.Chain = c[:steps]
	}
}

// maybeEff gives slot i's call or return an effective ring at or above
// its ring of execution half of the time.
func (g *Gen) maybeEff(r *sm64, i int) {
	if r.intn(2) == 0 {
		return
	}
	q := &g.buf[i]
	g.effs[i] = r.ring(q.Ring)
	q.EffRing = &g.effs[i]
}

// cloneBatch deep-copies a batch out of the generator's reused storage.
func cloneBatch(b []service.Query) []service.Query {
	out := make([]service.Query, len(b))
	for i, q := range b {
		out[i] = q
		if q.EffRing != nil {
			e := *q.EffRing
			out[i].EffRing = &e
		}
		if q.Chain != nil {
			out[i].Chain = append([]service.ChainStep(nil), q.Chain...)
		}
	}
	return out
}
