// Command ringload is a closed-loop load generator for the
// protection-decision service. It replays a synthetic mix of
// access/call/return/effring queries and reports throughput and
// p50/p95/p99 batch latency.
//
// Usage:
//
//	ringload [-c 4] [-duration 2s] [-batch 64] [-workers 4] [-queue 0]
//	         [-seed 1] [-json] [experiment]
//
// where experiment is at most one of
//
//	-sweep 1,2,4,8 [-sweep-workers 1,2,4]   T14 shard x worker grid
//	-target http://host:8642 [-transport http|wire]
//	-tenants N                               T15 tenant isolation
//	-compare-transports                      T16 HTTP vs wire
//	-client-cache                            T17 decision leases
//
// One experiment runs per invocation; with none, one in-process trial
// runs. Every mode runs the same closed-loop trial: each of the -c
// clients cycles its own 16 pre-generated batches (access:call:return:
// effring weighted 8:1:1:1), submitting to a rings.Checker, to one
// rings.RemoteChecker shared by every client, or to a tenant. With
// -json, results are a JSON array of ringbench's result record.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what every trial shares, parsed from the flags.
type config struct {
	clients  int
	duration time.Duration
	batch    int
	mix      mix
	workers  int
	queue    int
	seed     int64
	tenants  int
}

// mix is the query mix as integer weights.
type mix struct {
	access, call, ret, effring int
}

// defaultMix is mostly data references, with calls, returns and
// effective-ring chains making up the rest.
var defaultMix = mix{access: 8, call: 1, ret: 1, effring: 1}

func (m mix) total() int { return m.access + m.call + m.ret + m.effring }

func parseSweep(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sweep entry %q is not a positive integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// genQuery draws one query from the mix. Targets are numbered segments
// (segno form), so the same generator works in-process and against any
// ringd image with at least `segments` segments.
func genQuery(rng *rand.Rand, m mix, segments uint32) rings.Query {
	pick := rng.Intn(m.total())
	segno := rng.Uint32() % segments
	ring := rings.Ring(rng.Intn(8))
	wordno := rng.Uint32() % 64
	switch {
	case pick < m.access:
		kinds := [3]rings.AccessKind{rings.AccessRead, rings.AccessWrite, rings.AccessExecute}
		return rings.Query{Op: rings.OpAccess, Ring: ring, Segno: segno, Wordno: wordno, Kind: kinds[rng.Intn(3)]}
	case pick < m.access+m.call:
		return rings.Query{Op: rings.OpCall, Ring: ring, Segno: segno, Wordno: wordno % 8}
	case pick < m.access+m.call+m.ret:
		eff := rings.Ring(rng.Intn(8))
		return rings.Query{Op: rings.OpReturn, Ring: ring, Segno: segno, Wordno: wordno, EffRing: &eff}
	default:
		chain := make([]rings.ChainStep, 1+rng.Intn(3))
		for i := range chain {
			if rng.Intn(2) == 0 {
				chain[i] = rings.ChainStep{PR: true, Ring: rings.Ring(rng.Intn(8))}
			} else {
				chain[i] = rings.ChainStep{Ring: rings.Ring(rng.Intn(8)), Segno: rng.Uint32() % segments}
			}
		}
		return rings.Query{Op: rings.OpEffRing, Ring: ring, Chain: chain}
	}
}

// poolSize is the number of batches each client cycles through.
const poolSize = 16

// genBatches pre-generates the per-client batch pools so the hot loop
// only submits; client c's pool is seeded with seed + c.
func genBatches(cfg config, segments uint32) [][][]rings.Query {
	pools := make([][][]rings.Query, cfg.clients)
	for c := range pools {
		rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
		pools[c] = make([][]rings.Query, poolSize)
		for p := range pools[c] {
			batch := make([]rings.Query, cfg.batch)
			for i := range batch {
				batch[i] = genQuery(rng, cfg.mix, segments)
			}
			pools[c][p] = batch
		}
	}
	return pools
}

// ---- Log-linear latency histogram ----

// subBits gives 2^subBits linear sub-buckets per power-of-two range:
// ~6% relative resolution, enough for p99 on a histogram that never
// needs sorting or unbounded memory.
const subBits = 4

type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

func (h *hist) add(ns int64) {
	v := uint64(max(ns, 0))
	h.n++
	if v < 1<<subBits {
		h.counts[v]++
		return
	}
	msb := bits.Len64(v) - 1
	sub := (v >> (msb - subBits)) & (1<<subBits - 1)
	h.counts[uint64(msb-subBits+1)<<subBits|sub]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// quantile returns the lower bound of the bucket holding the q-th
// sample (0 < q <= 1).
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			block := uint64(i) >> subBits
			sub := uint64(i) & (1<<subBits - 1)
			if block == 0 {
				return int64(sub)
			}
			return int64((1<<subBits | sub) << (block - 1))
		}
	}
	return 0
}

// ---- The trial ----

// client is one closed-loop client: the batches it cycles through and
// where it submits them. submit fills dst; a batch shed by admission
// control returns an error matching rings.ErrQueueFull.
type client struct {
	pool   [][]rings.Query
	submit func(batch []rings.Query, dst []rings.Decision) error
}

// clientsOf gives each pool a client submitting through submit.
func clientsOf(pools [][][]rings.Query, submit func([]rings.Query, []rings.Decision) error) []client {
	cs := make([]client, len(pools))
	for i, p := range pools {
		cs[i] = client{pool: p, submit: submit}
	}
	return cs
}

// tally is one client's measurements over a trial.
type tally struct {
	decisions, batches, shed uint64
	lat                      hist
}

// result is one trial's measurements.
type result struct {
	elapsed   time.Duration
	clients   []tally
	mutations uint64
}

// stat is what a group of a trial's clients measured together.
type stat struct {
	decisions, batches, shed uint64
	perSec                   float64
	p50, p95, p99            time.Duration
}

// stat merges clients [lo, hi) of the trial; hi 0 means every client.
func (r *result) stat(lo, hi int) stat {
	if hi == 0 {
		hi = len(r.clients)
	}
	var s stat
	var lat hist
	for i := lo; i < hi; i++ {
		t := &r.clients[i]
		s.decisions += t.decisions
		s.batches += t.batches
		s.shed += t.shed
		lat.merge(&t.lat)
	}
	s.perSec = ratio(float64(s.decisions), r.elapsed.Seconds())
	s.p50 = time.Duration(lat.quantile(0.50))
	s.p95 = time.Duration(lat.quantile(0.95))
	s.p99 = time.Duration(lat.quantile(0.99))
	return s
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// trial runs every client's closed loop for cfg.duration while the
// calling goroutine runs mut, when it is not nil. A shed batch is
// counted and the loop goes on; any other error ends the trial.
func trial(cfg config, clients []client, mut *mutator) (*result, error) {
	res := &result{clients: make([]tally, len(clients))}
	var stop atomic.Bool
	errc := make(chan error, len(clients))
	var wg sync.WaitGroup

	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, t := &clients[c], &res.clients[c]
			dst := make([]rings.Decision, cfg.batch)
			for i := 0; !stop.Load(); i++ {
				batch := cl.pool[i%len(cl.pool)]
				t0 := time.Now()
				err := cl.submit(batch, dst)
				switch {
				case err == nil:
					t.lat.add(time.Since(t0).Nanoseconds())
					t.decisions += uint64(len(batch))
					t.batches++
				case errors.Is(err, rings.ErrQueueFull):
					t.shed++
				default:
					errc <- err
					return
				}
			}
		}()
	}
	var err error
	if mut != nil {
		res.mutations, err = mut.run(start.Add(cfg.duration))
	} else {
		time.Sleep(cfg.duration)
	}
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(start)
	if len(errc) > 0 {
		err = <-errc
	}
	return res, err
}

// mutator is a supervisor flipping user_data's brackets between a
// narrow and a wide setting through the store's snapshot-publish path:
// back to back when every is 0, else once per tick.
type mutator struct {
	set   func(rings.Brackets) error
	every time.Duration
}

// run edits until the deadline and returns the number of edits.
func (m *mutator) run(deadline time.Time) (uint64, error) {
	var tick <-chan time.Time
	if m.every > 0 {
		t := time.NewTicker(m.every)
		defer t.Stop()
		tick = t.C
	}
	wide := rings.Brackets{R1: 4, R2: 6, R3: 6}
	narrow := rings.Brackets{R1: 4, R2: 5, R3: 5}
	for n := uint64(0); ; n++ {
		if tick != nil {
			<-tick
		}
		if !time.Now().Before(deadline) {
			return n, nil
		}
		b := wide
		if n%2 == 0 {
			b = narrow
		}
		if err := m.set(b); err != nil {
			return n, err
		}
	}
}

// ---- In-process and remote trials ----

// remoteTrial runs one trial through one RemoteChecker shared by every
// client, so wire batches pipeline down one session. Pools are
// generated over the segment count the target reports.
func remoteTrial(cfg config, target string, rcfg rings.RemoteConfig, mut *mutator) (*result, rings.CacheStats, error) {
	rc, err := rings.DialRemote(target, rcfg)
	if err != nil {
		return nil, rings.CacheStats{}, err
	}
	defer rc.Close()
	h, err := rc.Health()
	if err == nil && h.Segments <= 0 {
		err = fmt.Errorf("target unhealthy: %+v", h)
	}
	if err != nil {
		return nil, rings.CacheStats{}, err
	}
	res, err := trial(cfg, clientsOf(genBatches(cfg, uint32(h.Segments)), rc.CheckInto), mut)
	return res, rc.CacheStats(), err
}

// report renders a trial of mode "in-process" or a remote transport;
// only in-process trials have shards and supervisor edits to report.
func report(cfg config, id, mode string, shards int, res *result) *exp.Result {
	s := res.stat(0, 0)
	lines := []string{
		fmt.Sprintf("mode %s, %d clients x batch %d, %v", mode, cfg.clients, cfg.batch, cfg.duration),
		fmt.Sprintf("mix access=%d call=%d return=%d effring=%d, seed %d",
			cfg.mix.access, cfg.mix.call, cfg.mix.ret, cfg.mix.effring, cfg.seed),
		fmt.Sprintf("decisions %d in %v (%.0f decisions/s), %d batches, %d shed",
			s.decisions, res.elapsed.Round(time.Millisecond), s.perSec, s.batches, s.shed),
		fmt.Sprintf("batch latency p50 %v p95 %v p99 %v", s.p50, s.p95, s.p99),
	}
	if mode == "in-process" {
		lines = append(lines, fmt.Sprintf("shards %d, workers %d, %d concurrent supervisor edits",
			shards, cfg.workers, res.mutations))
	}
	return &exp.Result{
		ID:     id,
		Title:  "protection-decision load: synthetic access/call/return mix",
		HostNs: res.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"decisions_per_sec": s.perSec,
			"decisions":         float64(s.decisions),
			"batches":           float64(s.batches),
			"shed_batches":      float64(s.shed),
			"mutations":         float64(res.mutations),
			"p50_ns":            float64(s.p50),
			"p95_ns":            float64(s.p95),
			"p99_ns":            float64(s.p99),
			"clients":           float64(cfg.clients),
			"batch":             float64(cfg.batch),
			"workers":           float64(cfg.workers),
			"shards":            float64(shards),
		},
		Lines: lines,
	}
}

// runGrid runs one in-process trial per (workers, shards) cell, both
// ascending, workers outermost, each on a fresh Checker over the demo
// image with one unpaced mutator. A cell's ID names the swept axes.
func runGrid(cfg config, sweep, sweepWorkers []int) ([]*exp.Result, error) {
	shardCounts, workerCounts := []int{0}, []int{cfg.workers}
	if len(sweep) > 0 {
		shardCounts = append([]int(nil), sweep...)
	}
	if len(sweepWorkers) > 0 {
		workerCounts = append([]int(nil), sweepWorkers...)
	}
	sort.Ints(shardCounts)
	sort.Ints(workerCounts)
	segs := tenant.DemoImage()
	var out []*exp.Result
	for _, w := range workerCounts {
		for _, n := range shardCounts {
			cfg.workers = w
			chk, err := rings.NewCheckerWith(rings.CheckerConfig{Workers: w, QueueDepth: cfg.queue, Shards: n}, segs)
			if err != nil {
				return nil, err
			}
			mut := &mutator{set: func(b rings.Brackets) error {
				return chk.SetBrackets("user_data", true, true, false, b, 0)
			}}
			res, err := trial(cfg, clientsOf(genBatches(cfg, uint32(len(segs))), chk.CheckInto), mut)
			shards := chk.Shards()
			chk.Close()
			if err != nil {
				return nil, err
			}
			id := "RINGLOAD"
			if len(sweep) > 0 {
				id += fmt.Sprintf("-S%d", shards)
			}
			if len(sweepWorkers) > 0 {
				id += fmt.Sprintf("-W%d", w)
			}
			out = append(out, report(cfg, id, "in-process", shards, res))
		}
	}
	return out, nil
}

// ---- T15: multi-tenant isolation ----

// zipfS is the Zipf skew of the hot-tenant pick: s=1.2 concentrates
// most batches on the first few tenants ("one noisy neighbour").
const zipfS = 1.2

// runT15 measures the last of cfg.tenants demo-image tenants alone
// (baseline), then again with Zipf-skewed hot neighbours.
func runT15(cfg config) ([]*exp.Result, error) {
	reg := tenant.NewRegistry(tenant.Config{
		MaxTenants:   cfg.tenants,
		WorkerBudget: cfg.tenants * cfg.workers,
	})
	defer reg.Close()
	segs := tenant.DemoImage()
	ts := make([]*tenant.Tenant, cfg.tenants)
	for i := range ts {
		var err error
		if ts[i], err = reg.Load(fmt.Sprintf("t%d", i), segs, tenant.TenantConfig{
			Workers: cfg.workers, QueueDepth: cfg.queue,
		}); err != nil {
			return nil, err
		}
	}

	gen := cfg
	gen.clients = cfg.clients + 1 // the extra pool feeds the cold client
	pools := genBatches(gen, uint32(len(segs)))
	ctx := context.Background()
	clients := make([]client, cfg.clients+1)
	for c := range clients {
		zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed+1000+int64(c))), zipfS, 1, uint64(len(ts)-2))
		clients[c] = client{pool: pools[c], submit: func(batch []rings.Query, dst []rings.Decision) error {
			t := ts[len(ts)-1] // the cold client keeps to the last tenant
			if c < cfg.clients {
				t = ts[zipf.Uint64()]
			}
			return t.SubmitInto(ctx, batch, dst)
		}}
	}

	base, err := trial(cfg, clients[cfg.clients:], nil)
	if err != nil {
		return nil, err
	}
	cont, err := trial(cfg, clients, nil)
	if err != nil {
		return nil, err
	}
	b, hot, c := base.stat(0, 0), cont.stat(0, cfg.clients), cont.stat(cfg.clients, 0)
	shed := hot.shed + c.shed
	p99Ratio := ratio(float64(c.p99), float64(b.p99))
	// The hot tenants are idle until the contended trial, so their
	// services' query counts are that trial's per-tenant spread.
	hottest, most := 0, uint64(0)
	for i, t := range ts[:len(ts)-1] {
		if n := t.Service().Snapshot().Queries; n > most {
			hottest, most = i, n
		}
	}
	hotShare := 100 * ratio(float64(most), float64(hot.decisions))

	baseline := &exp.Result{
		ID:     "RINGLOAD-T15-BASELINE",
		Title:  "tenant isolation baseline: cold tenant alone",
		HostNs: base.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"cold_decisions_per_sec": b.perSec,
			"cold_p50_ns":            float64(b.p50),
			"cold_p99_ns":            float64(b.p99),
			"tenants":                float64(cfg.tenants),
			"workers_per_tenant":     float64(cfg.workers),
			"batch":                  float64(cfg.batch),
		},
		Lines: []string{
			fmt.Sprintf("%d tenants x %d workers, cold client only, batch %d, %v",
				cfg.tenants, cfg.workers, cfg.batch, cfg.duration),
			fmt.Sprintf("cold tenant t%d: %d decisions (%.0f/s), p50 %v p99 %v",
				cfg.tenants-1, b.decisions, b.perSec, b.p50, b.p99),
		},
	}
	contended := &exp.Result{
		ID:     "RINGLOAD-T15",
		Title:  "tenant isolation: Zipf-hot neighbours vs cold tenant p99",
		HostNs: cont.elapsed.Nanoseconds(),
		Metrics: map[string]float64{
			"hot_decisions_per_sec":  hot.perSec,
			"hot_p99_ns":             float64(hot.p99),
			"shed_batches":           float64(shed),
			"cold_decisions_per_sec": c.perSec,
			"cold_p99_ns":            float64(c.p99),
			"cold_p99_baseline_ns":   float64(b.p99),
			"cold_p99_ratio":         p99Ratio,
			"tenants":                float64(cfg.tenants),
			"workers_per_tenant":     float64(cfg.workers),
			"clients":                float64(cfg.clients),
			"batch":                  float64(cfg.batch),
		},
		Lines: []string{
			fmt.Sprintf("%d tenants x %d workers, %d hot clients (zipf s=%.1f over t0..t%d) + 1 cold client, batch %d, %v",
				cfg.tenants, cfg.workers, cfg.clients, zipfS, cfg.tenants-2, cfg.batch, cfg.duration),
			fmt.Sprintf("hot aggregate: %d decisions (%.0f/s), p99 %v, %d batches shed; hottest t%d took %.0f%%",
				hot.decisions, hot.perSec, hot.p99, shed, hottest, hotShare),
			fmt.Sprintf("cold tenant t%d: %d decisions (%.0f/s), p99 %v vs baseline %v (ratio %.2f)",
				cfg.tenants-1, c.decisions, c.perSec, c.p99, b.p99, p99Ratio),
		},
	}
	return []*exp.Result{baseline, contended}, nil
}

// ---- T16 and T17: transports and decision leases over loopback ----

// loopback serves one demo-image tenant from a fresh registry over
// loopback HTTP and wire listeners; stop drains both and the registry.
func loopback(cfg config) (tnt *tenant.Tenant, httpURL, wireAddr string, stop func(), err error) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: cfg.workers})
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	hs, ws := &http.Server{Handler: h}, wire.NewServer(reg, wire.Config{})
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		ws.Shutdown(ctx)
		h.Close()
	}
	var hln, wln net.Listener
	tnt, err = reg.Load(tenant.DefaultTenant, tenant.DemoImage(), tenant.TenantConfig{
		Workers: cfg.workers, QueueDepth: cfg.queue,
	})
	if err == nil {
		hln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err == nil {
		go hs.Serve(hln) // from here, stop closes hln
		wln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		stop()
		return nil, "", "", nil, err
	}
	go ws.Serve(wln)
	return tnt, "http://" + hln.Addr().String(), wln.Addr().String(), stop, nil
}

// runT16 runs the same trial over each transport of one loopback
// registry: the JSON-vs-binary delta at equal worker count.
func runT16(cfg config) ([]*exp.Result, error) {
	_, httpURL, wireAddr, stop, err := loopback(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	var reports [2]*exp.Result
	for i, tr := range []struct{ target, transport, title string }{
		{httpURL, "http", "transport comparison: HTTP/JSON request-response"},
		{wireAddr, "wire", "transport comparison: binary streaming session"},
	} {
		res, _, err := remoteTrial(cfg, tr.target, rings.RemoteConfig{Transport: tr.transport}, nil)
		if err != nil {
			return nil, err
		}
		reports[i] = report(cfg, "RINGLOAD-T16-"+strings.ToUpper(tr.transport), tr.transport, 0, res)
		reports[i].Title = tr.title
	}
	hm, wm := reports[0].Metrics, reports[1].Metrics
	speedup := ratio(wm["decisions_per_sec"], hm["decisions_per_sec"])
	p99Ratio := ratio(wm["p99_ns"], hm["p99_ns"])
	delta := &exp.Result{
		ID:     "RINGLOAD-T16",
		Title:  "transport comparison: binary streaming vs HTTP/JSON delta",
		HostNs: reports[0].HostNs + reports[1].HostNs,
		Metrics: map[string]float64{
			"wire_speedup":           speedup,
			"p99_ratio":              p99Ratio,
			"http_decisions_per_sec": hm["decisions_per_sec"],
			"wire_decisions_per_sec": wm["decisions_per_sec"],
			"http_p99_ns":            hm["p99_ns"],
			"wire_p99_ns":            wm["p99_ns"],
			"clients":                float64(cfg.clients),
			"batch":                  float64(cfg.batch),
			"workers":                float64(cfg.workers),
		},
		Lines: []string{
			fmt.Sprintf("%d clients x batch %d, %d workers, %v per transport",
				cfg.clients, cfg.batch, cfg.workers, cfg.duration),
			fmt.Sprintf("http: %.0f decisions/s, p99 %v", hm["decisions_per_sec"], time.Duration(hm["p99_ns"])),
			fmt.Sprintf("wire: %.0f decisions/s, p99 %v (one session, pipelined)",
				wm["decisions_per_sec"], time.Duration(wm["p99_ns"])),
			fmt.Sprintf("wire/http: %.2fx throughput, %.2fx p99", speedup, p99Ratio),
		},
	}
	return append(reports[:], delta), nil
}

// t17Rates is the supervisor mutation-rate grid, edits per second to
// user_data: an idle store, a trickle and an aggressive editor. Every
// edit shoots down the edited shard's leases on every subscribed client.
var t17Rates = []int{0, 100, 1000}

// runT17 measures, at each rate in t17Rates, the same batch pools
// twice against one loopback wire listener: uncached (every batch a
// round trip) and cached (repeat queries answered from decision leases
// kept coherent by the shootdown stream).
func runT17(cfg config) ([]*exp.Result, error) {
	tnt, _, wireAddr, stop, err := loopback(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	udSegno, ok := tnt.Store().Segno("user_data")
	if !ok {
		return nil, errors.New("demo image has no user_data segment")
	}
	// A multi-shard effring chain is lease-ineligible (no one shootdown
	// names its epoch interval) and sends its whole batch over the wire,
	// so the grid measures the cacheable mix.
	cfg.mix.effring = 0
	// Size the cache past the working set (clients x poolSize x batch) so
	// eviction never competes with shootdowns; the TTL is only the lag
	// backstop.
	uncached := rings.RemoteConfig{Transport: "wire"}
	cached := rings.RemoteConfig{Transport: "wire",
		CacheSize: 2 * cfg.clients * poolSize * cfg.batch, CacheTTL: 5 * time.Second}

	var out []*exp.Result
	var headNs int64
	for _, rate := range t17Rates {
		var mut *mutator
		if rate > 0 {
			mut = &mutator{every: time.Second / time.Duration(rate), set: func(b rings.Brackets) error {
				return tnt.Store().SetBrackets(udSegno, true, true, false, b, 0)
			}}
		}
		un, _, err := remoteTrial(cfg, wireAddr, uncached, mut)
		if err != nil {
			return nil, err
		}
		ca, stats, err := remoteTrial(cfg, wireAddr, cached, mut)
		if err != nil {
			return nil, err
		}
		u, c := un.stat(0, 0), ca.stat(0, 0)
		hitRate := ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses))
		speedup := ratio(c.perSec, u.perSec)
		ns := un.elapsed.Nanoseconds() + ca.elapsed.Nanoseconds()
		headNs += ns
		out = append(out, &exp.Result{
			ID:     fmt.Sprintf("RINGLOAD-T17-M%d", rate),
			Title:  fmt.Sprintf("decision leases: cached vs uncached wire at %d edits/s", rate),
			HostNs: ns,
			Metrics: map[string]float64{
				"mutation_rate":              float64(rate),
				"uncached_decisions_per_sec": u.perSec,
				"cached_decisions_per_sec":   c.perSec,
				"cached_speedup":             speedup,
				"hit_rate":                   hitRate,
				"uncached_p99_ns":            float64(u.p99),
				"cached_p99_ns":              float64(c.p99),
				"lease_hits":                 float64(stats.Hits),
				"lease_misses":               float64(stats.Misses),
				"lease_shootdowns":           float64(stats.Shootdowns),
				"mutations":                  float64(ca.mutations),
				"clients":                    float64(cfg.clients),
				"batch":                      float64(cfg.batch),
				"workers":                    float64(cfg.workers),
			},
			Lines: []string{
				fmt.Sprintf("%d clients x batch %d, %d workers, %v per trial, %d supervisor edits/s",
					cfg.clients, cfg.batch, cfg.workers, cfg.duration, rate),
				fmt.Sprintf("uncached wire: %.0f decisions/s, p99 %v", u.perSec, u.p99),
				fmt.Sprintf("cached wire: %.0f decisions/s, p99 %v (%.1f%% lease hits, %d shootdowns)",
					c.perSec, c.p99, 100*hitRate, stats.Shootdowns),
				fmt.Sprintf("cached/uncached: %.2fx throughput", speedup),
			},
		})
	}
	// The headline is the idle-store cell.
	headSpeedup, headHitRate := out[0].Metrics["cached_speedup"], out[0].Metrics["hit_rate"]
	head := &exp.Result{
		ID:     "RINGLOAD-T17",
		Title:  "decision leases: client cache speedup over uncached wire",
		HostNs: headNs,
		Metrics: map[string]float64{
			"cached_speedup": headSpeedup,
			"hit_rate":       headHitRate,
			"clients":        float64(cfg.clients),
			"batch":          float64(cfg.batch),
			"workers":        float64(cfg.workers),
		},
		Lines: []string{
			fmt.Sprintf("idle store: %.2fx cached throughput at %.1f%% lease hit rate",
				headSpeedup, 100*headHitRate),
			fmt.Sprintf("grid: %v edits/s cells above, same pools both sides per cell", t17Rates),
		},
	}
	return append(out, head), nil
}

// ---- Command ----

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{mix: defaultMix}
	fs.IntVar(&cfg.clients, "c", 4, "concurrent closed-loop clients")
	fs.DurationVar(&cfg.duration, "duration", 2*time.Second, "run length per trial")
	fs.IntVar(&cfg.batch, "batch", 64, "queries per submitted batch")
	fs.IntVar(&cfg.workers, "workers", 4, "decision slots per checker or tenant (not with -target)")
	fs.IntVar(&cfg.queue, "queue", 0, "callers allowed to wait for a decision slot (not with -target; 0 = default)")
	fs.Int64Var(&cfg.seed, "seed", 1, "query-generation seed")
	sweepFlag := fs.String("sweep", "", "comma-separated shard counts to sweep (in-process)")
	sweepWorkersFlag := fs.String("sweep-workers", "", "comma-separated worker counts to sweep (in-process; with -sweep, the cross product)")
	fs.IntVar(&cfg.tenants, "tenants", 1, "tenants for the T15 isolation experiment (>= 2 enables it)")
	target := fs.String("target", "", "ringd base URL, or wire address; empty runs in-process")
	transport := fs.String("transport", "http", "transport for -target: http (JSON request-response) or wire (binary streaming session)")
	compare := fs.Bool("compare-transports", false, "run the T16 transport experiment: same registry over HTTP and wire loopback listeners")
	clientCache := fs.Bool("client-cache", false, "run the T17 decision-lease experiment: cached wire clients vs uncached across a mutation-rate grid")
	jsonOut := fs.Bool("json", false, "emit results as a ringbench-compatible JSON array")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ringload:", err)
		return 1
	}
	sweep, err := parseSweep(*sweepFlag)
	sweepWorkers, err2 := parseSweep(*sweepWorkersFlag)
	if err = errors.Join(err, err2); err != nil {
		return fail(err)
	}
	experiments := 0
	for _, on := range []bool{len(sweep)+len(sweepWorkers) > 0, *target != "", cfg.tenants > 1, *compare, *clientCache} {
		if on {
			experiments++
		}
	}
	switch {
	case cfg.clients <= 0 || cfg.batch <= 0 || cfg.duration <= 0:
		return fail(errors.New("-c, -batch and -duration must be positive"))
	case *transport != "http" && *transport != "wire":
		return fail(fmt.Errorf("-transport must be http or wire, got %q", *transport))
	case experiments > 1:
		return fail(errors.New("one experiment per invocation: -sweep/-sweep-workers, -target, -tenants, -compare-transports and -client-cache exclude each other"))
	}

	var results []*exp.Result
	switch {
	case *target != "":
		var res *result
		if res, _, err = remoteTrial(cfg, *target, rings.RemoteConfig{Transport: *transport}, nil); err == nil {
			results = []*exp.Result{report(cfg, "RINGLOAD", *transport, 0, res)}
		}
	case cfg.tenants > 1:
		results, err = runT15(cfg)
	case *compare:
		results, err = runT16(cfg)
	case *clientCache:
		results, err = runT17(cfg)
	default:
		results, err = runGrid(cfg, sweep, sweepWorkers)
	}
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		if err := exp.WriteJSON(stdout, results); err != nil {
			return fail(err)
		}
		return 0
	}
	for _, r := range results {
		fmt.Fprintln(stdout, r)
	}
	return 0
}
