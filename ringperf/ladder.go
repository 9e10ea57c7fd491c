package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/seg"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

// The ladder replays one seeded sample of a workload's batches down
// every layer of the decision path, bottom up, timing each call as a
// span that shares the batch's id. A layer's self time is its span
// minus the next-lower layer's span for the same batch.
const (
	lCore = iota
	lMMU
	lService
	lTenant
	lTenantHTTP
	lCodec
	lSession
	lRemote
	lHTTPClient
	lLeaseMiss
	lLeaseHit
	numLayers
)

// layerNames name each rung's span; layerParents name the rungs whose
// self time subtracts it.
var (
	layerNames = [numLayers]string{"core", "mmu", "service", "tenant", "tenant.http",
		"wire.codec", "wire.session", "rings.remote", "rings.http", "rings.lease_miss", "rings.lease_hit"}
	layerParents = [numLayers]string{"", "service", "tenant", "tenant.http|wire.session", "rings.http",
		"wire.session", "rings.remote", "", "", "", ""}
)

// staticSource serves descriptors from the image, unchanging: the
// ladder's mmu rung validates over it.
type staticSource []seg.SDW

func (s staticSource) LookupSDW(segno uint32) (seg.SDW, error) {
	if int(segno) >= len(s) {
		return seg.SDW{}, fmt.Errorf("segment %d beyond the image", segno)
	}
	return s[segno], nil
}

// ladderResult is the ladder's ledger.
type ladderResult struct {
	batches    int
	queries    int
	mismatches int // batches on which some rung disagreed
	timerNs    float64

	ns [numLayers]float64 // mean per batch over the timed passes
	// spanNs[l][i] is rung l's span for batch i, clock cost removed.
	spanNs        [numLayers][]float64
	mmuAllocs     float64 // per query
	serviceAllocs float64 // per batch
	codecAllocs   float64 // per batch
	wireBytes     float64 // per decision
	// leaseHits is the hit ratio the miss and hit rungs' timed passes
	// saw: near 0 and near 1 when the rungs measure what they name.
	leaseHits  [2]float64
	publishP50 float64
	publishP99 float64
}

// ladderQueries sizes the sample each rung replays, in queries; the
// batch count is clamped to [ladderMinBatches, ladderMaxBatches].
const (
	ladderQueries    = 1 << 15
	ladderMinBatches = 500
	ladderMaxBatches = 4000
)

// minRungTime is how long each rung's timed passes add up to at
// least, over ladderRounds rounds.
const (
	minRungTime  = 200 * time.Millisecond
	ladderRounds = 8
)

// runLadder builds a fresh tenant rig for the workload's image, replays
// a sample of the workload's batches down every rung, cross-checks
// every rung's decisions against the core rung (and the version stamps
// of every serving rung against the service's), then times direct
// store publishes.
func runLadder(w *workload, seed int64, spans *spanLog) (*ladderResult, error) {
	img := GenImage(seed, w.segments)
	g := NewGen(img, w.genConfig(seed), deriveSeed(seed, "ladder"))
	mean := float64(w.gen.BatchMin+w.gen.BatchMax) / 2
	sample := make([][]service.Query, min(max(int(ladderQueries/mean), ladderMinBatches), ladderMaxBatches))
	res := &ladderResult{batches: len(sample)}
	for i := range sample {
		sample[i] = cloneBatch(g.Next())
		res.queries += len(sample[i])
	}

	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: workers})
	defer reg.Close()
	ten, err := reg.Load(tenant.DefaultTenant, img.Segs, tenant.TenantConfig{Workers: workers, Shards: shards})
	if err != nil {
		return nil, err
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	hln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(hln)
	wln, err := listenLoopback()
	if err != nil {
		hs.Close()
		return nil, err
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(wln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		ws.Shutdown(ctx)
	}()
	wc, err := wire.Dial(wln.Addr().String(), wire.ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	remote, err := rings.DialRemote(wln.Addr().String(), rings.RemoteConfig{Transport: "wire"})
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	httpc, err := rings.DialRemote("http://"+hln.Addr().String(), rings.RemoteConfig{Transport: "http"})
	if err != nil {
		return nil, err
	}
	defer httpc.Close()
	// No edits reach the ladder's store until its last step, so the hit
	// rung's leases may live as long as the ladder runs.
	cached, err := rings.DialRemote(wln.Addr().String(), rings.RemoteConfig{Transport: "wire",
		CacheSize: res.queries, CacheTTL: time.Hour})
	if err != nil {
		return nil, err
	}
	defer cached.Close()
	missc, err := rings.DialRemote(wln.Addr().String(), rings.RemoteConfig{Transport: "wire", CacheSize: 1})
	if err != nil {
		return nil, err
	}
	defer missc.Close()

	src := make(staticSource, len(img.Segs))
	for i, s := range img.Segs {
		v := img.Views[i]
		src[i] = seg.SDW{Present: true, Bound: uint32(s.Size), Read: v.Read, Write: v.Write,
			Execute: v.Execute, Brackets: v.Brackets, Gate: v.GateCount}
	}
	u := mmu.New(nil, mmu.Options{Validate: true})
	u.SetSDWSource(src)
	view := func(segno uint32) core.SDWView { return img.Views[segno] }

	bodies := make([][]byte, len(sample))
	for i, b := range sample {
		if bodies[i], err = checkJSON(b); err != nil {
			return nil, err
		}
	}

	out := make([][][]service.Decision, numLayers)
	for l := range out {
		out[l] = make([][]service.Decision, len(sample))
		for i, b := range sample {
			out[l][i] = make([]service.Decision, len(b))
		}
	}
	ctx := context.Background()
	svc := ten.Service()
	var reqBuf, respBuf []byte
	var wb wire.Batch
	var codecBytes int
	// The hit rung replays, of each batch, the queries a lease can hold
	// (the service answered them from one shard), so every lookup can
	// hit; hitIdx maps them back into their batch.
	var hitBatch []int
	var hitIdx [][]int
	var hitQ [][]service.Query

	// call[l] answers batch i on rung l into dst.
	var call [numLayers]func(i int, dst []service.Decision) error
	call[lCore] = func(i int, dst []service.Decision) error {
		q := sample[i]
		for k := range q {
			dst[k] = expect(&q[k], view)
		}
		return nil
	}
	call[lMMU] = func(i int, dst []service.Decision) error {
		q := sample[i]
		for k := range q {
			mmuDecide(u, &q[k], &dst[k])
		}
		return nil
	}
	call[lService] = func(i int, dst []service.Decision) error { return svc.SubmitInto(ctx, sample[i], dst) }
	call[lTenant] = func(i int, dst []service.Decision) error { return ten.SubmitInto(ctx, sample[i], dst) }
	call[lCodec] = func(i int, dst []service.Decision) error {
		var err error
		if reqBuf, err = wire.EncodeCheck(reqBuf, uint64(i), sample[i]); err != nil {
			return err
		}
		if err = wire.DecodeCheckInto(reqBuf[wire.HeaderLen:], &wb); err != nil {
			return err
		}
		if respBuf, err = wire.EncodeDecisions(respBuf, uint64(i), out[lService][i]); err != nil {
			return err
		}
		_, err = wire.DecodeDecisionsInto(respBuf[wire.HeaderLen:], dst)
		codecBytes += len(reqBuf) + len(respBuf)
		return err
	}
	call[lSession] = func(i int, dst []service.Decision) error { return wc.CheckInto(sample[i], dst) }
	call[lRemote] = func(i int, dst []service.Decision) error { return remote.CheckInto(sample[i], dst) }
	call[lHTTPClient] = func(i int, dst []service.Decision) error { return httpc.CheckInto(sample[i], dst) }
	// The lease rungs: a client whose one-entry cache turns every query
	// into a miss that still inserts and evicts, as a full cache does in
	// steady state; and a cache holding the whole sample, read after a
	// pass has filled it.
	call[lLeaseMiss] = func(i int, dst []service.Decision) error { return missc.CheckInto(sample[i], dst) }
	call[lLeaseHit] = func(i int, dst []service.Decision) error { return cached.CheckInto(hitQ[i], dst) }

	// span times batch i on rung l. The handler rung's request and
	// recorder are built, and its response decoded, outside the span.
	span := func(l, i int, dst []service.Decision) (t0, t1 time.Time, err error) {
		if l != lTenantHTTP {
			t0 = time.Now()
			err = call[l](i, dst)
			return t0, time.Now(), err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(bodies[i]))
		rec := httptest.NewRecorder()
		t0 = time.Now()
		h.ServeHTTP(rec, req)
		t1 = time.Now()
		if rec.Code != http.StatusOK {
			return t0, t1, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		var cr struct {
			Decisions []service.Decision `json:"decisions"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil || len(cr.Decisions) != len(sample[i]) {
			return t0, t1, fmt.Errorf("bad response: %v", err)
		}
		copy(dst, cr.Decisions)
		return t0, t1, nil
	}
	count := func(l int) int {
		if l == lLeaseHit {
			return len(hitQ)
		}
		return len(sample)
	}
	fail := func(l int, err error) (*ladderResult, error) {
		return nil, fmt.Errorf("ladder %s: %w", layerNames[l], err)
	}

	// Warm every rung; count the allocations of the rungs meant to make
	// none; take the service's answers, which feed the codec rung and
	// pick the hit rung's queries; and fill the hit rung's cache.
	scratch := make([]service.Decision, w.gen.BatchMax)
	warm := min(200, len(sample))
	for l := lCore; l < numLayers; l++ {
		if l == lLeaseHit {
			for i := range sample {
				var idx []int
				for k := range sample[i] {
					if out[lService][i][k].Shard >= 0 {
						idx = append(idx, k)
					}
				}
				if len(idx) == 0 {
					continue
				}
				q := make([]service.Query, len(idx))
				for j, k := range idx {
					q[j] = sample[i][k]
				}
				hitBatch, hitIdx, hitQ = append(hitBatch, i), append(hitIdx, idx), append(hitQ, q)
			}
		}
		for i := 0; i < count(l); i++ {
			if i >= warm && l != lService && l != lLeaseHit {
				break
			}
			dst := scratch
			if l == lService {
				dst = out[l][i]
			}
			if _, _, err := span(l, i, dst); err != nil {
				return fail(l, err)
			}
		}
		if l == lMMU || l == lService || l == lCodec {
			allocs, err := countAllocs(func() error {
				for i := range sample {
					if err := call[l](i, scratch); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fail(l, err)
			}
			switch l {
			case lMMU:
				res.mmuAllocs = allocs / float64(res.queries)
			case lService:
				res.serviceAllocs = allocs / float64(len(sample))
			case lCodec:
				res.codecAllocs = allocs / float64(len(sample))
			}
		}
	}

	res.timerNs = calibrateTimer()
	var total [numLayers]float64 // ns
	var done [numLayers]int      // batches timed
	// Timed passes. Each rung runs for its share of a round on its own,
	// so its pipeline is as warm as under a workload's steady load; the
	// rungs take turns over ladderRounds rounds, in an order rotated each
	// round, so drift in the host spreads over all of them. The
	// in-process rungs that neither block nor allocate are timed as
	// whole-sample loops under one clock pair, each started on a
	// collected heap, so the clock's own cost does not swamp them. The
	// others time each batch, keep their first answer to every batch for
	// the cross-check, and record it as a span; every batch is replayed
	// at least once.
	fast := func(l int) bool { return l == lCore || l == lMMU || l == lCodec }
	var cursor [numLayers]int
	for l := range res.spanNs {
		res.spanNs[l] = make([]float64, count(l))
	}
	stats0 := [2]rings.CacheStats{missc.CacheStats(), cached.CacheStats()}
	for round := 0; round < ladderRounds; round++ {
		for j := 0; j < numLayers; j++ {
			l := (j + round) % numLayers
			budget := float64(minRungTime / ladderRounds)
			if fast(l) {
				runtime.GC()
				for spent := 0.0; spent < budget; {
					t0 := time.Now()
					for i := range sample {
						if err := call[l](i, scratch); err != nil {
							return fail(l, err)
						}
					}
					d := float64(time.Since(t0).Nanoseconds())
					spent += d
					total[l] += d
					done[l] += len(sample)
				}
				continue
			}
			n := count(l)
			if n == 0 {
				continue // no batch holds a leasable query
			}
			quota := (n + ladderRounds - 1) / ladderRounds
			for k, spent := 0, 0.0; k < quota || spent < budget; k++ {
				c := cursor[l]
				cursor[l]++
				i := c % n
				dst := scratch
				if c < n {
					dst = out[l][i]
					if l == lLeaseHit {
						dst = make([]service.Decision, len(hitQ[i]))
					}
				}
				t0, t1, err := span(l, i, dst)
				if err != nil {
					return fail(l, err)
				}
				d := float64(t1.Sub(t0).Nanoseconds()) - res.timerNs
				spent += d
				total[l] += d
				done[l]++
				if c < n {
					res.spanNs[l][i] = d
					spans.add(layerNames[l], layerParents[l], uint64(i), t0, t1)
					if l == lLeaseHit {
						for j, k := range hitIdx[i] {
							out[lLeaseHit][hitBatch[i]][k] = dst[j]
						}
					}
				}
			}
		}
	}
	stats1 := [2]rings.CacheStats{missc.CacheStats(), cached.CacheStats()}
	for k := range stats0 {
		hits, misses := stats1[k].Hits-stats0[k].Hits, stats1[k].Misses-stats0[k].Misses
		res.leaseHits[k] = float64(hits) / float64(max(hits+misses, 1))
	}
	// The fast rungs' spans pass, keeping their answers.
	for l := lCore; l < numLayers; l++ {
		if !fast(l) {
			continue
		}
		codecBytes = 0
		for i := range sample {
			t0, t1, err := span(l, i, out[l][i])
			if err != nil {
				return fail(l, err)
			}
			res.spanNs[l][i] = float64(t1.Sub(t0).Nanoseconds()) - res.timerNs
			spans.add(layerNames[l], layerParents[l], uint64(i), t0, t1)
		}
		if l == lCodec {
			res.wireBytes = float64(codecBytes) / float64(res.queries)
		}
	}
	for l := range total {
		res.ns[l] = total[l] / float64(max(done[l], 1))
	}

	// Queries no lease can hold are answered remotely by the hit
	// rung's client too; the miss rung's answers stand in for them.
	cacheable := make([][]bool, len(sample))
	for j, i := range hitBatch {
		cacheable[i] = make([]bool, len(sample[i]))
		for _, k := range hitIdx[j] {
			cacheable[i][k] = true
		}
	}
	for i := range sample {
		for k := range sample[i] {
			if cacheable[i] == nil || !cacheable[i][k] {
				out[lLeaseHit][i][k] = out[lLeaseMiss][i][k]
			}
		}
	}

	// Cross-check: every rung must give the core rung's answer, and
	// every serving rung the service's version stamps.
	for i := range sample {
		bad := false
		for l := lMMU; l < numLayers; l++ {
			for k := range sample[i] {
				a, b := &out[lCore][i][k], &out[l][i][k]
				if !sameDecision(a, b) {
					bad = true
				}
				if l > lService {
					s := &out[lService][i][k]
					if b.Shard != s.Shard || b.VersionLo != s.VersionLo || b.VersionHi != s.VersionHi {
						bad = true
					}
				}
			}
		}
		if bad {
			res.mismatches++
		}
	}

	// Publish cost: supervisor edits straight into the store, with the
	// cached client's subscription making every publish broadcast.
	rng := sm64{s: deriveSeed(seed, "ladder/publish")}
	pub := newHist()
	for k := 0; k < 1000; k++ {
		segno := uint32(rng.intn(len(img.Segs)))
		v := editView(&rng, img.Views[segno])
		t0 := time.Now()
		err := ten.Store().SetBrackets(segno, v.Read, v.Write, v.Execute, v.Brackets, v.GateCount)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("ladder publish: %w", err)
		}
		spans.add("service.publish", "", uint64(k), t0, t1)
		pub.add(t1.Sub(t0).Nanoseconds())
	}
	res.publishP50, res.publishP99 = pub.quantile(0.5), pub.quantile(0.99)
	return res, nil
}

// mmuDecide answers q through the mmu's validation entry points, the
// way a processor would: Access/Call/Return on the target segment, and
// the effring chain folded over FetchSDW with each indirect word's
// read validated.
func mmuDecide(u *mmu.MMU, q *service.Query, d *service.Decision) {
	*d = service.Decision{}
	deny := func(k core.ViolationKind) { d.ViolationKind = k }
	eff := q.Ring
	if q.EffRing != nil {
		eff = *q.EffRing
	}
	var k core.ViolationKind
	var err error
	switch q.Op {
	case service.OpAccess:
		k, err = u.Access(q.Segno, q.Wordno, q.Ring, q.Kind)
		d.Allowed = err == nil && k == core.ViolationNone
	case service.OpCall:
		var dec core.CallDecision
		dec, k, err = u.Call(q.Segno, q.Wordno, q.Ring, eff, q.SameSegment)
		if err == nil && k == core.ViolationNone {
			d.Allowed, d.Outcome, d.NewRing = true, dec.Outcome.String(), dec.NewRing
			d.Trapped = dec.Outcome == core.CallUpwardTrap
		}
	case service.OpReturn:
		var dec core.ReturnDecision
		dec, k, err = u.Return(q.Segno, q.Wordno, q.Ring, eff)
		if err == nil && k == core.ViolationNone {
			d.Allowed, d.Outcome, d.NewRing = true, dec.Outcome.String(), dec.NewRing
			d.Trapped = dec.Outcome == core.ReturnDownwardTrap
		}
	case service.OpEffRing:
		r := q.Ring
		for _, st := range q.Chain {
			if st.PR {
				r = core.EffectiveRingPR(r, st.Ring)
				continue
			}
			var sdw seg.SDW
			if sdw, err = u.FetchSDW(st.Segno); err != nil {
				break
			}
			v := sdw.View()
			if k = u.AccessView(v, st.Segno, 0, r, core.AccessRead); k != core.ViolationNone {
				break
			}
			r = core.EffectiveRingIndirect(r, st.Ring, v.R1)
		}
		d.Allowed, d.NewRing = err == nil && k == core.ViolationNone, r
		if !d.Allowed {
			d.NewRing = 0
		}
	}
	if err != nil {
		d.Err = err.Error()
		return
	}
	if k != core.ViolationNone {
		deny(k)
	}
}

// self is rung upper's self time: the median over the sample's batches
// of its span minus the spans of the rungs below it for the same batch.
func (r *ladderResult) self(upper int, below ...int) float64 {
	d := make([]float64, len(r.spanNs[upper]))
	for i := range d {
		d[i] = r.spanNs[upper][i]
		for _, l := range below {
			d[i] -= r.spanNs[l][i]
		}
	}
	return median(d)
}

// calibrateTimer returns the median cost of an empty span (two clock
// reads), which every rung's mean has subtracted.
func calibrateTimer() float64 {
	xs := make([]float64, 20000)
	for i := range xs {
		t0 := time.Now()
		t1 := time.Now()
		xs[i] = float64(t1.Sub(t0).Nanoseconds())
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// countAllocs returns the heap allocations f made.
func countAllocs(f func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), err
}

// checkJSON is the /v1/check request body for a batch.
func checkJSON(qs []service.Query) ([]byte, error) {
	type jq struct {
		Op          string              `json:"op"`
		Ring        uint8               `json:"ring"`
		Segno       uint32              `json:"segno,omitempty"`
		Wordno      uint32              `json:"wordno,omitempty"`
		Kind        string              `json:"kind,omitempty"`
		EffRing     *uint8              `json:"eff_ring,omitempty"`
		SameSegment bool                `json:"same_segment,omitempty"`
		Chain       []service.ChainStep `json:"chain,omitempty"`
	}
	kinds := [...]string{core.AccessRead: "read", core.AccessWrite: "write", core.AccessExecute: "execute"}
	body := struct {
		Queries []jq `json:"queries"`
	}{Queries: make([]jq, len(qs))}
	for i, q := range qs {
		j := jq{Op: string(q.Op), Ring: uint8(q.Ring), Segno: q.Segno, Wordno: q.Wordno,
			SameSegment: q.SameSegment, Chain: q.Chain}
		if q.Op == service.OpAccess {
			j.Kind = kinds[q.Kind]
		}
		if q.EffRing != nil {
			e := uint8(*q.EffRing)
			j.EffRing = &e
		}
		body.Queries[i] = j
	}
	return json.Marshal(body)
}
