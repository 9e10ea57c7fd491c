package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

func TestParseSweep(t *testing.T) {
	s, err := parseSweep("1, 2,4,8")
	if err != nil || len(s) != 4 || s[3] != 8 {
		t.Errorf("parseSweep: %v, %v", s, err)
	}
	if s, err := parseSweep(""); err != nil || s != nil {
		t.Errorf("empty sweep: %v, %v", s, err)
	}
	for _, bad := range []string{"0", "x", "1,,2", "-4"} {
		if _, err := parseSweep(bad); err == nil {
			t.Errorf("parseSweep(%q): want error", bad)
		}
	}
}

// TestHistQuantile feeds a known distribution and checks the log-linear
// histogram's percentiles land within its ~6% bucket resolution.
func TestHistQuantile(t *testing.T) {
	var h hist
	for i := int64(1); i <= 10000; i++ {
		h.add(i)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 5000}, {0.95, 9500}, {0.99, 9900}} {
		got := h.quantile(c.q)
		if got < c.want*9/10 || got > c.want*11/10 {
			t.Errorf("quantile(%.2f) = %d, want within 10%% of %d", c.q, got, c.want)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
	var tiny hist
	tiny.add(7)
	if got := tiny.quantile(0.99); got != 7 {
		t.Errorf("single-sample quantile = %d, want 7", got)
	}
}

// TestGenQueryDeterministicAndValid checks that generation is
// reproducible for a seed and only produces well-formed queries (the
// load must measure decisions, not error handling).
func TestGenQueryDeterministicAndValid(t *testing.T) {
	m := defaultMix
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	chk, err := rings.NewChecker(tenant.DemoImage())
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	defer chk.Close()
	for i := 0; i < 200; i++ {
		qa, qb := genQuery(a, m, 6), genQuery(b, m, 6)
		if qa.Op != qb.Op || qa.Segno != qb.Segno || qa.Ring != qb.Ring {
			t.Fatalf("generation diverged at %d: %+v vs %+v", i, qa, qb)
		}
		ds, err := chk.Check(qa)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if ds[0].Err != "" {
			t.Fatalf("generated query %d is malformed: %+v -> %q", i, qa, ds[0].Err)
		}
	}
}

// runJSON runs the command and decodes its JSON output.
func runJSON(t *testing.T, args ...string) []exp.Result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "-json"), &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	var results []exp.Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	return results
}

func TestRunInProcess(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "150ms", "-workers", "2")
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.ID != "RINGLOAD" || r.HostNs <= 0 {
		t.Errorf("result shape: %+v", r)
	}
	for _, key := range []string{"decisions_per_sec", "decisions", "p50_ns", "p95_ns", "p99_ns", "shards", "mutations"} {
		if _, ok := r.Metrics[key]; !ok {
			t.Errorf("metric %q missing: %v", key, r.Metrics)
		}
	}
	if r.Metrics["decisions"] <= 0 || r.Metrics["decisions_per_sec"] <= 0 {
		t.Errorf("no decisions measured: %v", r.Metrics)
	}
	if r.Metrics["shards"] != 8 {
		t.Errorf("default shards = %v, want 8", r.Metrics["shards"])
	}
	if r.Metrics["p50_ns"] <= 0 || r.Metrics["p99_ns"] < r.Metrics["p50_ns"] {
		t.Errorf("latency percentiles inconsistent: %v", r.Metrics)
	}
}

func TestRunSweep(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "100ms", "-sweep", "2,1")
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].ID != "RINGLOAD-S1" || results[1].ID != "RINGLOAD-S2" {
		t.Errorf("sweep ids: %s, %s (want ascending shard order)", results[0].ID, results[1].ID)
	}
	if results[0].Metrics["shards"] != 1 || results[1].Metrics["shards"] != 2 {
		t.Errorf("sweep shard metrics: %v, %v", results[0].Metrics, results[1].Metrics)
	}
}

func TestRunSweepWorkers(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "100ms", "-sweep-workers", "2,1")
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].ID != "RINGLOAD-W1" || results[1].ID != "RINGLOAD-W2" {
		t.Errorf("worker-sweep ids: %s, %s (want ascending worker order)", results[0].ID, results[1].ID)
	}
	if results[0].Metrics["workers"] != 1 || results[1].Metrics["workers"] != 2 {
		t.Errorf("worker-sweep metrics: %v, %v", results[0].Metrics, results[1].Metrics)
	}
}

// TestRunSweepGrid checks the T14 cross product: -sweep × -sweep-workers
// runs every (workers, shards) cell, workers outermost, both ascending.
func TestRunSweepGrid(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "50ms",
		"-sweep", "2,1", "-sweep-workers", "2,1")
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	wantIDs := []string{"RINGLOAD-S1-W1", "RINGLOAD-S2-W1", "RINGLOAD-S1-W2", "RINGLOAD-S2-W2"}
	for i, want := range wantIDs {
		if results[i].ID != want {
			t.Errorf("grid cell %d: id %s, want %s", i, results[i].ID, want)
		}
	}
	for i, want := range []struct{ w, s float64 }{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		if results[i].Metrics["workers"] != want.w || results[i].Metrics["shards"] != want.s {
			t.Errorf("grid cell %d: workers=%v shards=%v, want %v/%v",
				i, results[i].Metrics["workers"], results[i].Metrics["shards"], want.w, want.s)
		}
	}
}

func TestRunHTTPTarget(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{})
	def, err := reg.Load(tenant.DefaultTenant, []service.Segment{
		{Name: "data", Size: 64, Read: true, Write: true,
			Brackets: rings.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 64, Read: true, Execute: true,
			Brackets: rings.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
	}, tenant.TenantConfig{Workers: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer h.Close()

	results := runJSON(t, "-c", "2", "-batch", "4", "-duration", "150ms", "-target", srv.URL)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Metrics["decisions"] <= 0 {
		t.Errorf("no decisions over HTTP: %v", r.Metrics)
	}
	if r.Metrics["mutations"] != 0 {
		t.Errorf("HTTP mode ran mutators: %v", r.Metrics)
	}
	if !strings.Contains(strings.Join(r.Lines, "\n"), "mode http") {
		t.Errorf("lines missing mode: %v", r.Lines)
	}
	if snap := def.Service().Snapshot(); snap.Queries == 0 {
		t.Errorf("server saw no queries")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-mix", "bogus"},
		{"-mutators", "1"},
		{"-shards", "8"},
		{"-sweep", "0"},
		{"-sweep-workers", "0"},
		{"-c", "0"},
		{"-duration", "0s"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v): want non-zero exit", args)
		}
	}
}

// TestRunWireTarget replays batches against a wire.Server over the
// binary streaming transport and checks the closed loop measures real
// decisions, mirroring TestRunHTTPTarget.
func TestRunWireTarget(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: 2})
	if _, err := reg.Load(tenant.DefaultTenant, tenant.DemoImage(), tenant.TenantConfig{Workers: 2}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
		reg.Close()
	}()

	results := runJSON(t, "-c", "2", "-batch", "4", "-duration", "150ms",
		"-target", ln.Addr().String(), "-transport", "wire")
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.Metrics["decisions"] <= 0 {
		t.Errorf("no decisions over the wire: %v", r.Metrics)
	}
	if r.Metrics["mutations"] != 0 {
		t.Errorf("wire mode ran mutators: %v", r.Metrics)
	}
	if !strings.Contains(strings.Join(r.Lines, "\n"), "mode wire") {
		t.Errorf("lines missing mode: %v", r.Lines)
	}
}

// TestRunCompareTransports smoke-tests the T16 experiment: three
// results (http, wire, delta) with the headline ratio metrics present
// and consistent.
func TestRunCompareTransports(t *testing.T) {
	results := runJSON(t, "-c", "2", "-batch", "8", "-duration", "150ms",
		"-workers", "2", "-compare-transports")
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	wantIDs := []string{"RINGLOAD-T16-HTTP", "RINGLOAD-T16-WIRE", "RINGLOAD-T16"}
	for i, want := range wantIDs {
		if results[i].ID != want {
			t.Errorf("result %d: id %s, want %s", i, results[i].ID, want)
		}
	}
	httpRes, wireRes, delta := results[0], results[1], results[2]
	if httpRes.Metrics["decisions"] <= 0 || wireRes.Metrics["decisions"] <= 0 {
		t.Fatalf("a transport measured no decisions: http %v, wire %v",
			httpRes.Metrics, wireRes.Metrics)
	}
	for _, key := range []string{"wire_speedup", "p99_ratio", "http_decisions_per_sec", "wire_decisions_per_sec"} {
		if _, ok := delta.Metrics[key]; !ok {
			t.Errorf("delta metric %q missing: %v", key, delta.Metrics)
		}
	}
	if delta.Metrics["wire_speedup"] <= 0 {
		t.Errorf("wire_speedup = %v, want > 0", delta.Metrics["wire_speedup"])
	}
	wantRatio := wireRes.Metrics["decisions_per_sec"] / httpRes.Metrics["decisions_per_sec"]
	if got := delta.Metrics["wire_speedup"]; got < wantRatio*0.99 || got > wantRatio*1.01 {
		t.Errorf("wire_speedup = %v, inconsistent with per-transport metrics (%v)", got, wantRatio)
	}
}

// TestRunRejectsBadTransportFlags pins the flag-validation edges the
// transport work added.
func TestRunRejectsBadTransportFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-transport", "telepathy"},
		{"-compare-transports", "-target", "http://localhost:1"},
		{"-compare-transports", "-tenants", "2"},
		{"-client-cache", "-compare-transports"},
		{"-sweep", "2", "-tenants", "3"},
		{"-sweep-workers", "2", "-target", "http://localhost:1"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v): want non-zero exit", args)
		}
	}
}

// TestGenBatchesDigest pins the pre-generated batch pools for seed 1,
// under the default mix and under T17's (no effring), so a change to
// the generator cannot pass silently as a change to the workload.
func TestGenBatchesDigest(t *testing.T) {
	for _, c := range []struct {
		name string
		m    mix
		want string
	}{
		{"default", mix{access: 8, call: 1, ret: 1, effring: 1}, "6153b387fdc938a5c28be0394130361473807cb71f14dedcc7aa0881bd164efd"},
		{"t17", mix{access: 8, call: 1, ret: 1}, "8d6f3bcb0ccf637425449373f939604abc9814b07e7da978379eefb577da201f"},
	} {
		pools := genBatches(config{clients: 3, batch: 16, seed: 1, mix: c.m}, 6)
		b, err := json.Marshal(pools)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s mix: pool digest %s, want %s", c.name, got, c.want)
		}
	}
}

// serveDemo serves the demo image from one registry over a loopback
// HTTP server and a loopback wire listener, for the -target modes.
func serveDemo(t *testing.T) (httpURL, wireAddr string) {
	t.Helper()
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: 2})
	if _, err := reg.Load(tenant.DefaultTenant, tenant.DemoImage(), tenant.TenantConfig{Workers: 2}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	srv := httptest.NewServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ws := wire.NewServer(reg, wire.Config{})
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
		srv.Close()
		h.Close()
	})
	return srv.URL, ln.Addr().String()
}

// shape is what one emitted result promises its readers: its ID, the
// names of its metrics and the number of report lines.
type shape struct {
	id    string
	keys  string
	lines int
}

// TestRunModeShapes runs every mode for about 50 ms per trial and pins
// the shape of what it emits: result IDs in order, each result's metric
// keys and its report-line count.
func TestRunModeShapes(t *testing.T) {
	httpURL, wireAddr := serveDemo(t)
	const (
		trial = "batch,batches,clients,decisions,decisions_per_sec,mutations,p50_ns,p95_ns,p99_ns,shards,shed_batches,workers"
		t16   = "batch,clients,http_decisions_per_sec,http_p99_ns,p99_ratio,wire_decisions_per_sec,wire_p99_ns,wire_speedup,workers"
		t17   = "batch,cached_decisions_per_sec,cached_p99_ns,cached_speedup,clients,hit_rate,lease_hits,lease_misses,lease_shootdowns,mutation_rate,mutations,uncached_decisions_per_sec,uncached_p99_ns,workers"
	)
	base := []string{"-c", "2", "-batch", "8", "-duration", "50ms", "-workers", "2"}
	for _, c := range []struct {
		name string
		args []string
		want []shape
	}{
		{"in-process", nil, []shape{{"RINGLOAD", trial, 5}}},
		{"sweep grid", []string{"-sweep", "2,1", "-sweep-workers", "2,1"}, []shape{
			{"RINGLOAD-S1-W1", trial, 5}, {"RINGLOAD-S2-W1", trial, 5},
			{"RINGLOAD-S1-W2", trial, 5}, {"RINGLOAD-S2-W2", trial, 5}}},
		{"target http", []string{"-target", httpURL}, []shape{{"RINGLOAD", trial, 4}}},
		{"target wire", []string{"-target", wireAddr, "-transport", "wire"}, []shape{{"RINGLOAD", trial, 4}}},
		{"tenants", []string{"-tenants", "3", "-queue", "2"}, []shape{
			{"RINGLOAD-T15-BASELINE", "batch,cold_decisions_per_sec,cold_p50_ns,cold_p99_ns,tenants,workers_per_tenant", 2},
			{"RINGLOAD-T15", "batch,clients,cold_decisions_per_sec,cold_p99_baseline_ns,cold_p99_ns,cold_p99_ratio,hot_decisions_per_sec,hot_p99_ns,shed_batches,tenants,workers_per_tenant", 3}}},
		{"compare-transports", []string{"-compare-transports"}, []shape{
			{"RINGLOAD-T16-HTTP", trial, 4}, {"RINGLOAD-T16-WIRE", trial, 4}, {"RINGLOAD-T16", t16, 4}}},
		{"client-cache", []string{"-client-cache"}, []shape{
			{"RINGLOAD-T17-M0", t17, 4}, {"RINGLOAD-T17-M100", t17, 4}, {"RINGLOAD-T17-M1000", t17, 4},
			{"RINGLOAD-T17", "batch,cached_speedup,clients,hit_rate,workers", 2}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := append(append(append([]string(nil), base...), c.args...), "-json")
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
			}
			var results []struct {
				ID      string             `json:"id"`
				Metrics map[string]float64 `json:"metrics"`
				Lines   []string           `json:"lines"`
			}
			if err := json.Unmarshal(out.Bytes(), &results); err != nil {
				t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
			}
			got := make([]shape, len(results))
			for i, r := range results {
				keys := make([]string, 0, len(r.Metrics))
				for k := range r.Metrics {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				got[i] = shape{r.ID, strings.Join(keys, ","), len(r.Lines)}
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %d results %+v, want %d", len(got), got, len(c.want))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("result %d: got %+v\nwant %+v", i, got[i], c.want[i])
				}
			}
		})
	}
}
