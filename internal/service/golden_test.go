package service

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// Golden HTTP fixtures pin the daemon's wire format byte for byte:
// every field name, the indentation writeJSON emits, the shard/version
// interval on each decision, and the error bodies of the 4xx paths.
// A change that drifts the format fails here before any client does.
// Regenerate deliberately with:
//
//	go test ./internal/service -run TestHTTPGolden -update
var update = flag.Bool("update", false, "rewrite golden HTTP fixtures")

// checkGolden compares got against testdata/golden/<name>, rewriting
// the fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
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
		t.Errorf("wire format drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenPost posts a raw body and returns the response with its body,
// asserting the expected status.
func goldenPost(t *testing.T, url, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, out.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	return out.Bytes()
}

// TestHTTPGolden runs an ordered request sequence against one
// single-slot server (so worker indices and store versions are
// deterministic) and pins every response body against its fixture.
func TestHTTPGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Pre-mutation health: version 0, the default shard count.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, buf.String())
	}
	checkGolden(t, "healthz.json", buf.Bytes())

	// One batch exercising every op: allowed and denied access, a gate
	// call with a ring switch, a return, and an effective-ring chain.
	// All shard intervals are [0,0] — nothing has mutated yet.
	checkBody := `{"queries": [
  {"op": "access", "ring": 4, "segment": "data", "wordno": 3, "kind": "read"},
  {"op": "access", "ring": 5, "segment": "data", "kind": "read"},
  {"op": "access", "ring": 7, "segment": "secret", "kind": "read"},
  {"op": "call", "ring": 4, "segment": "code", "wordno": 1},
  {"op": "return", "ring": 2, "segment": "code", "eff_ring": 3},
  {"op": "effring", "ring": 2, "chain": [{"pr": true, "ring": 3}]}
]}`
	checkGolden(t, "check_ok.json", goldenPost(t, ts.URL+"/v1/check", checkBody, http.StatusOK))

	// Error paths: malformed body, empty batch, unknown access kind.
	checkGolden(t, "check_malformed.json",
		goldenPost(t, ts.URL+"/v1/check", "{not json", http.StatusBadRequest))
	checkGolden(t, "check_empty.json",
		goldenPost(t, ts.URL+"/v1/check", `{"queries": []}`, http.StatusBadRequest))
	checkGolden(t, "check_bad_kind.json",
		goldenPost(t, ts.URL+"/v1/check",
			`{"queries": [{"op": "access", "ring": 1, "segment": "data", "kind": "sniff"}]}`,
			http.StatusBadRequest))

	// First mutation: the store's epoch sum moves to 2 (one completed
	// edit on one shard).
	checkGolden(t, "mutate_ok.json",
		goldenPost(t, ts.URL+"/v1/mutate",
			`{"op": "setbrackets", "segment": "data", "read": true, "write": true, "r1": 1, "r2": 1, "r3": 1}`,
			http.StatusOK))

	// The same access that fixture check_ok.json allowed now reports the
	// post-mutation shard interval and denies.
	checkGolden(t, "check_after_mutate.json",
		goldenPost(t, ts.URL+"/v1/check",
			`{"queries": [{"op": "access", "ring": 4, "segment": "data", "wordno": 3, "kind": "read"}]}`,
			http.StatusOK))

	checkGolden(t, "mutate_unknown_segment.json",
		goldenPost(t, ts.URL+"/v1/mutate",
			`{"op": "revoke", "segment": "nonesuch"}`, http.StatusNotFound))
}

// TestHTTPGoldenQueueFull pins the 429 body and Retry-After header:
// with the only slot occupied and one request waiting for it, a third
// request exceeds Workers+QueueDepth and sheds.
func TestHTTPGoldenQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	svc := srv.Service()
	release := occupy(t, svc)

	body := `{"queries": [{"op": "access", "ring": 3, "segment": "data"}]}`
	done := make(chan struct{}, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader([]byte(body)))
		if err == nil {
			resp.Body.Close()
		}
		done <- struct{}{}
	}()
	waitFor(t, "request to wait for a slot", func() bool { return svc.Snapshot().QueueLen == 1 })

	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, out.String())
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	checkGolden(t, "check_queue_full.json", out.Bytes())

	release()
	<-done
}
