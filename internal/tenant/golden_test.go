package tenant

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// Golden HTTP fixtures pin the daemon's JSON format byte for byte:
// every field name, the indentation writeJSON emits, the shard/version
// interval on each decision, and the error bodies of the 4xx paths.
// A change that drifts the format fails here before any client does;
// the service package's TestHTTPGolden and TestHTTPGoldenQueueFull
// check its own part of them (the decisions and error messages)
// without HTTP. Regenerate deliberately with:
//
//	go test ./internal/tenant -run TestGoldenReplayAgainstDefaultTenant -update
var update = flag.Bool("update", false, "rewrite golden HTTP fixtures")

// checkGolden compares got against testdata/golden/<name>, or rewrites
// the fixture when write is set.
func checkGolden(t *testing.T, name string, got []byte, write bool) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if write {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write fixture: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON format drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenDo sends one request and returns the response with its body,
// asserting the status and the JSON content type.
func goldenDo(t *testing.T, method, url, body string, wantStatus int) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, wantStatus, out.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	return resp, out.Bytes()
}

// goldenRoutes are the two paths to the default tenant's decision
// endpoints; both must serve the fixtures byte for byte.
var goldenRoutes = []struct{ name, healthz, check, mutate string }{
	{"default", "/healthz", "/v1/check", "/v1/mutate"},
	{"tenant-scoped", "/v1/t/default/healthz", "/v1/t/default/check", "/v1/t/default/mutate"},
}

// serveDefault serves a fresh registry whose default tenant is sized
// by cfg.
func serveDefault(t *testing.T, cfg TenantConfig) (*Tenant, *httptest.Server) {
	t.Helper()
	r := NewRegistry(Config{})
	tn, err := r.Load(DefaultTenant, testImage(), cfg)
	if err != nil {
		t.Fatalf("load default: %v", err)
	}
	h := NewHandler(r, HandlerOptions{})
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); h.Close() })
	return tn, ts
}

// saturate keeps tn's single slot busy and its one queue place taken
// with large in-process batches until the returned stop is called, so
// further batches shed with 429.
func saturate(t *testing.T, tn *Tenant) (stop func()) {
	t.Helper()
	big := make([]service.Query, tn.Service().BatchLimit())
	for i := range big {
		big[i] = service.Query{Op: service.OpAccess, Ring: 4, Segment: "data"}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Three callers: one deciding, one waiting, one ready to retake
	// whichever place frees first.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]service.Decision, len(big))
			for {
				select {
				case <-done:
					return
				default:
					_ = tn.SubmitInto(context.Background(), big, dst)
				}
			}
		}()
	}
	var once sync.Once
	stop = func() { once.Do(func() { close(done); wg.Wait() }) }
	t.Cleanup(stop)
	return stop
}

// postUntilShed posts body to url until the tenant sheds it, and
// returns the 429 response and its body.
func postUntilShed(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatalf("read body: %v", err)
		}
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return resp, out.Bytes()
		case resp.StatusCode != http.StatusOK:
			t.Fatalf("POST %s: status %d, want 200 or 429: %s", url, resp.StatusCode, out.String())
		case time.Now().After(deadline):
			t.Fatalf("POST %s: no 429 from a saturated tenant within 10s", url)
		}
	}
}

// TestGoldenReplayAgainstDefaultTenant runs an ordered request
// sequence against a single-slot default tenant (so worker indices and
// store versions are deterministic) on each route to it, and pins every
// response body against its fixture. Under -update the first route writes the
// fixtures and the second must still match them.
func TestGoldenReplayAgainstDefaultTenant(t *testing.T) {
	for i, route := range goldenRoutes {
		write := *update && i == 0
		golden := func(name string, got []byte) {
			t.Helper()
			checkGolden(t, name, got, write)
		}
		_, ts := serveDefault(t, TenantConfig{Workers: 1})

		// Pre-mutation health: version 0, the default shard count.
		_, body := goldenDo(t, "GET", ts.URL+route.healthz, "", http.StatusOK)
		golden("healthz.json", body)

		// One batch exercising every op: allowed and denied access, a
		// gate call with a ring switch, a return, and an effective-ring
		// chain. All shard intervals are [0,0] — nothing has mutated yet.
		checkBody := `{"queries": [
  {"op": "access", "ring": 4, "segment": "data", "wordno": 3, "kind": "read"},
  {"op": "access", "ring": 5, "segment": "data", "kind": "read"},
  {"op": "access", "ring": 7, "segment": "secret", "kind": "read"},
  {"op": "call", "ring": 4, "segment": "code", "wordno": 1},
  {"op": "return", "ring": 2, "segment": "code", "eff_ring": 3},
  {"op": "effring", "ring": 2, "chain": [{"pr": true, "ring": 3}]}
]}`
		post := func(path, body string, status int) []byte {
			t.Helper()
			_, out := goldenDo(t, "POST", ts.URL+path, body, status)
			return out
		}
		golden("check_ok.json", post(route.check, checkBody, http.StatusOK))

		// Error paths: malformed body, empty batch, unknown access kind.
		golden("check_malformed.json", post(route.check, "{not json", http.StatusBadRequest))
		golden("check_empty.json", post(route.check, `{"queries": []}`, http.StatusBadRequest))
		golden("check_bad_kind.json", post(route.check,
			`{"queries": [{"op": "access", "ring": 1, "segment": "data", "kind": "sniff"}]}`,
			http.StatusBadRequest))

		// First mutation: the store's epoch sum moves to 2 (one
		// completed edit on one shard).
		golden("mutate_ok.json", post(route.mutate,
			`{"op": "setbrackets", "segment": "data", "read": true, "write": true, "r1": 1, "r2": 1, "r3": 1}`,
			http.StatusOK))

		// The same access that check_ok.json allowed now reports the
		// post-mutation shard interval and denies.
		golden("check_after_mutate.json", post(route.check,
			`{"queries": [{"op": "access", "ring": 4, "segment": "data", "wordno": 3, "kind": "read"}]}`,
			http.StatusOK))

		golden("mutate_unknown_segment.json", post(route.mutate,
			`{"op": "revoke", "segment": "nonesuch"}`, http.StatusNotFound))

		// A saturated single-slot, depth-1 tenant sheds with 429 and
		// Retry-After.
		tn, ts := serveDefault(t, TenantConfig{Workers: 1, QueueDepth: 1, BatchLimit: 4096})
		stop := saturate(t, tn)
		resp, body := postUntilShed(t, ts.URL+route.check,
			`{"queries": [{"op": "access", "ring": 3, "segment": "data"}]}`)
		stop()
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After = %q, want %q", route.name, got, "1")
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", route.name, ct)
		}
		golden("check_queue_full.json", body)
	}
}
