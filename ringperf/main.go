// Command ringperf is the benchmark of the protection-decision path.
// It runs one named workload against the decision service, checks
// every decision against an independent oracle built from the core
// predicates, and prints its metrics; the last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is the traced run, and the metrics are the per-layer ledger. See
// README.md for the workloads, the metrics and what each should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash ringperf/run.sh --workload embedded-small --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds the spans a traced run leaves behind, under the build
// directory the runner already uses.
const outDir = ".bench_build/ringperf"

// setups is how many sub-runs a measured run makes, each on a rig it
// builds afresh; setup_s is the median of their set-up times.
const setups = 5

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ringperf:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's output: human lines first, the result last.
type report struct {
	lines   []string
	metrics map[string]metric
	order   []string
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func run(args []string, stdout io.Writer) error {
	// HTTP clients from rings.DialRemote, and the supervisor's mutate
	// requests, share http.DefaultTransport. Keep an idle connection
	// for each concurrent user (two clients, the supervisor's probe and
	// its edit), so the pool never closes one to redial it.
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = 4
	fl := flag.NewFlagSet("ringperf", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: embedded-small, wire-stream, lease-churn or http-json")
	seed := fl.Int64("seed", 1, "seed of the image and every query stream")
	seconds := fl.Float64("seconds", 10, "length of the timed window")
	trace := fl.Int("trace", 0, "1 for the traced run (per-layer ledger), 0 for the measured run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
	}
	d := time.Duration(*seconds * float64(time.Second))
	prov := provenance(w, *seed, *seconds, *trace)
	rep := &report{metrics: map[string]metric{}}
	var res result
	if *trace == 0 {
		res, err = measuredRun(w, *seed, d, rep)
	} else {
		res, err = tracedRun(w, *seed, d, rep)
	}
	if err != nil {
		return err
	}
	res.Metrics = rep.metrics
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Fprintf(stdout, "%-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return nil
}

// measuredRun is the untraced run: setups sub-runs, each setting up a
// fresh rig (timed: setup_s is the median) and then running its share
// of the timed window, giving the end-to-end metrics.
func measuredRun(w *workload, seed int64, d time.Duration, rep *report) (result, error) {
	var setupS []float64
	var warm warmResult
	win := &windowResult{}
	var conns int64
	for k := 0; k < setups; k++ {
		runtime.GC() // start each set-up, and then each window, from a collected heap
		t0 := time.Now()
		r, wk, err := setup(w, seed)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		warm.batches += wk.batches
		warm.mismatched += wk.mismatched
		runtime.GC()
		wd, we := phases(w, d/setups)
		win.add(r.window(wd, we, seed, fmt.Sprintf("window/%d", k), nil))
		conns = max(conns, r.connections())
		r.close()
	}
	sup := win.sup

	res := tally(win, warm)
	rep.line("workload %s seed %d: %d batches, %d decisions; failed %d of %d (fail_frac %.6f: %d errored, %d shed, %d oracle-mismatched batches, %d failed edits, %d warm-up mismatches)",
		w.name, seed, win.batches, win.decided, res.Failed, res.Attempted,
		float64(res.Failed)/float64(res.Attempted), win.errored, win.shed, win.mismatched, sup.failed, warm.mismatched)
	rep.line("samples (each figure is the median over %d slices of %d sub-runs): batch n=%d, mutate n=%d, revoke_visible n=%d (%d probes); setups: %s",
		len(win.lat), setups, total(win.lat).n, total(sup.mutate).n, total(sup.visible).n, sup.probes, fmtList(setupS))
	rep.line("generator: %d goroutines, %d connections, pacer lag p50 %.1fus p99 %.1fus max %.1fus over %d edits (%s)",
		win.goroutines, conns, sup.lag.quantile(0.5)/1e3,
		sup.lag.quantile(0.99)/1e3, sup.lag.quantile(1)/1e3, sup.lag.n, editPacing(w))

	rep.line("supervisor (median over slices): mutate p50 %.1fus, revoke_visible p50 %.1fus; pooled p99: batch %.1fus, mutate %.1fus, revoke_visible %.1fus",
		sliceQuantile(sup.mutate, 0.5)/1e3, sliceQuantile(sup.visible, 0.5)/1e3,
		total(win.lat).quantile(0.99)/1e3, total(sup.mutate).quantile(0.99)/1e3, total(sup.visible).quantile(0.99)/1e3)

	rep.set("decisions_per_s", "decisions/s", win.perSecond())
	rep.set("batch_p50_us", "us", sliceQuantile(win.lat, 0.5)/1e3)
	rep.set("batch_p90_us", "us", sliceQuantile(win.lat, 0.9)/1e3)
	rep.set("cpu_ns_per_decision", "ns", win.cpuPerDecision())
	rep.set("peak_heap_mb", "MiB", win.heapMB)
	rep.set("setup_s", "s", median(setupS))
	return res, nil
}

// phases divides a sub-run's time t between the measured window d and
// the trailing edit phase e (none when the workload's window carries
// the edits).
func phases(w *workload, t time.Duration) (d, e time.Duration) {
	if w.editsInWindow {
		return t, 0
	}
	d = t * 3 / 4
	return d, t - d
}

// warmResult is what set-up's warm-up checked.
type warmResult struct{ batches, mismatched uint64 }

// setup builds the workload from its seed: image, system, listeners,
// clients, and the warm-up, up to the first timed request.
func setup(w *workload, seed int64) (*rig, warmResult, error) {
	img := GenImage(seed, w.segments)
	r, batches, bad, err := newRig(w, img, seed)
	return r, warmResult{batches: batches, mismatched: bad}, err
}

// tally totals what was attempted and what failed: every batch, edit
// and warm-up batch; a batch fails when it errors, is shed or disagrees
// with the oracle, an edit when it errors or never becomes visible.
func tally(win *windowResult, warm warmResult) result {
	attempted := win.batches + win.sup.edits + warm.batches
	failed := win.failedBatches() + win.sup.failed + warm.mismatched
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed}
}

func editPacing(w *workload) string {
	if w.editsInWindow {
		return fmt.Sprintf("%d/s during the measured window", editRate)
	}
	return fmt.Sprintf("%d/s in the last quarter of each sub-run, after its measured window", editRate)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4fs", x)
	}
	return strings.Join(parts, " ")
}

// tracedRun is the traced run: one set-up, an untraced then a traced
// half window (their difference is the tracing overhead), the edit
// stream, then the ladder replay; it gives the per-layer ledger.
func tracedRun(w *workload, seed int64, d time.Duration, rep *report) (result, error) {
	spans := newSpanLog()
	r, warm, err := setup(w, seed)
	if err != nil {
		return result{}, err
	}
	wd, we := phases(w, d/2)
	plain := r.window(wd, we, seed, "untraced", nil)
	c0 := r.counters()
	traced := r.window(wd, we, seed, "traced", spans)
	sup := traced.sup
	c1 := r.counters()
	conns := r.connections()
	r.close()
	lad, err := runLadder(w, seed, spans)
	if err != nil {
		return result{}, err
	}
	if err := saveSpans(w, seed, spans); err != nil {
		return result{}, err
	}

	res := tally(traced, warm)
	res.Attempted += plain.batches + plain.sup.edits + uint64(lad.batches)
	res.Failed += plain.failedBatches() + plain.sup.failed + uint64(lad.mismatches)
	res.Correct = res.Failed == 0

	rep.line("workload %s seed %d traced run: %d+%d batches; failed %d of %d (fail_frac %.6f); ladder: %d batches, %d queries, %d mismatched batches, timer %.1fns/span; %d spans kept, %d dropped",
		w.name, seed, plain.batches, traced.batches, res.Failed, res.Attempted,
		float64(res.Failed)/float64(res.Attempted), lad.batches, lad.queries, lad.mismatches,
		lad.timerNs, len(spans.spans), spans.dropped)
	rep.line("ladder lease rungs: miss rung hit ratio %.4f, hit rung hit ratio %.4f",
		lad.leaseHits[0], lad.leaseHits[1])

	n := func(l int) float64 { return lad.ns[l] }
	meanLen := float64(lad.queries) / float64(lad.batches)
	mmuQ := n(lMMU) / meanLen
	rep.set("core.ns_per_query", "ns", n(lCore)/meanLen)
	rep.set("mmu.ns_per_query", "ns", mmuQ)
	rep.set("mmu.allocs_per_query", "allocs", lad.mmuAllocs)
	rep.set("service.ns_per_batch", "ns", n(lService))
	rep.set("service.allocs_per_batch", "allocs", lad.serviceAllocs)
	rep.set("service.self_ns_per_batch", "ns", lad.self(lService, lMMU))
	rep.set("service.shed_frac", "ratio", float64(c1.rejected-c0.rejected)/float64(max(traced.batches, 1)))
	rep.set("service.publish_p50_ns", "ns", lad.publishP50)
	rep.set("service.publish_p99_ns", "ns", lad.publishP99)
	rep.set("service.rcu_publishes", "count", float64(c1.rcu.Publishes-c0.rcu.Publishes))
	rep.set("service.rcu_dropped", "count", float64(c1.rcu.Dropped-c0.rcu.Dropped))
	rep.set("tenant.ns_per_batch", "ns", n(lTenant))
	rep.set("tenant.self_ns_per_batch", "ns", lad.self(lTenant, lService))
	rep.set("tenant.http_ns_per_batch", "ns", n(lTenantHTTP))
	rep.set("tenant.http_self_ns_per_batch", "ns", lad.self(lTenantHTTP, lTenant))
	rep.set("tenant.shootdowns_delivered", "per_edit", float64(c1.leases.Shootdowns-c0.leases.Shootdowns)/float64(max(sup.edits, 1)))
	rep.set("wire.codec_ns_per_batch", "ns", n(lCodec))
	rep.set("wire.codec_allocs_per_batch", "allocs", lad.codecAllocs)
	rep.set("wire.bytes_per_decision", "bytes", lad.wireBytes)
	rep.set("wire.session_ns_per_batch", "ns", n(lSession))
	rep.set("wire.socket_self_ns_per_batch", "ns", lad.self(lSession, lTenant, lCodec))
	rep.set("rings.remote_self_ns_per_batch", "ns", lad.self(lRemote, lSession))
	rep.set("rings.http_client_self_ns_per_batch", "ns", lad.self(lHTTPClient, lTenantHTTP))
	hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rep.set("rings.lease_hit_ratio", "ratio", ratio)
	rep.set("rings.lease_hits", "count", float64(hits))
	rep.set("rings.lease_misses", "count", float64(misses))
	rep.set("rings.lease_shootdowns", "count", float64(c1.cache.Shootdowns-c0.cache.Shootdowns))
	rep.set("rings.lease_flushes", "count", float64(c1.cache.Flushes-c0.cache.Flushes))
	rep.set("rings.lease_hit_batch_ns", "ns", n(lLeaseHit))
	rep.set("rings.lease_miss_batch_ns", "ns", n(lLeaseMiss))
	rep.set("trace.overhead_frac", "ratio", 1-traced.perSecond()/plain.perSecond())
	rep.set("trace.overhead_p50_ns", "ns", sliceQuantile(traced.lat, 0.5)-sliceQuantile(plain.lat, 0.5))
	rep.set("supervisor.mutate_p50_us", "us", sliceQuantile(sup.mutate, 0.5)/1e3)
	rep.set("supervisor.revoke_visible_p50_us", "us", sliceQuantile(sup.visible, 0.5)/1e3)
	rep.set("supervisor.mutate_p99_us", "us", total(sup.mutate).quantile(0.99)/1e3)
	rep.set("supervisor.revoke_visible_p99_us", "us", total(sup.visible).quantile(0.99)/1e3)
	rep.set("gen.pacer_lag_p99_us", "us", sup.lag.quantile(0.99)/1e3)
	rep.set("gen.goroutines", "count", float64(traced.goroutines))
	rep.set("gen.connections", "count", float64(conns))
	return res, nil
}

// provenance records where and how a result was measured.
func provenance(w *workload, seed int64, seconds float64, trace int) map[string]any {
	link := "loopback"
	if w.transport == "embedded" {
		link = "in-process"
	}
	commit := os.Getenv("RINGPERF_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	g := w.gen
	params := map[string]any{
		"segments": w.segments, "clients": w.clients, "transport": w.transport,
		"batch_min": g.BatchMin, "batch_max": g.BatchMax, "mix": g.Mix.String(),
		"workers": workers, "shards": shards, "warm_queries": w.warmQueries,
		"edits": editPacing(w), "cache_size": w.cacheSize, "sub_runs": setups, "slices_per_sub_run": slicesPer,
	}
	if g.Zipf {
		params["dist"] = fmt.Sprintf("zipf(s=%g, v=%g, working_set=%d)", g.ZipfS, g.ZipfV, g.WorkingSet)
	} else {
		params["dist"] = "uniform"
	}
	return map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit, "source_sha256": sourceDigest(), "link": link, "params": params,
	}
}

// sourceDigest hashes the repository's Go sources and module files, so
// a result names the code it measured even outside a git checkout.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// saveSpans writes the traced run's spans to outDir, one per line:
// name, parent, batch id, start and end in ns since the run began.
func saveSpans(w *workload, seed int64, spans *spanLog) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("name\tparent\tbatch\tstart_ns\tend_ns\n")
	for _, s := range spans.spans {
		fmt.Fprintf(&sb, "%s\t%s\t%d\t%d\t%d\n", s.name, s.parent, s.batch, s.start, s.end)
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.tsv", w.name, seed)), []byte(sb.String()), 0o644)
}
