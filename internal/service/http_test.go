package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := NewServer(svc)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out.Bytes()
}

func decode(t *testing.T, data []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

// TestHTTPCheck drives a mixed batch through POST /v1/check.
func TestHTTPCheck(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := checkRequest{Queries: []wireQuery{
		{Op: "access", Ring: 4, Segment: "data", Wordno: 3, Kind: "read"},
		{Op: "access", Ring: 5, Segment: "data", Kind: "read"},
		{Op: "access", Ring: 2, Segment: "data", Kind: "write"},
		{Op: "call", Ring: 4, Segment: "code", Wordno: 1},
		{Op: "return", Ring: 2, Segment: "code", EffRing: func() *uint8 { r := uint8(3); return &r }()},
		{Op: "effring", Ring: 2, Chain: []ChainStep{{PR: true, Ring: 3}}},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out checkResponse
	decode(t, body, &out)
	if len(out.Decisions) != len(req.Queries) {
		t.Fatalf("got %d decisions, want %d", len(out.Decisions), len(req.Queries))
	}
	wantAllowed := []bool{true, false, true, true, true, true}
	for i, d := range out.Decisions {
		if d.Err != "" {
			t.Errorf("decision %d: err %q", i, d.Err)
		}
		if d.Allowed != wantAllowed[i] {
			t.Errorf("decision %d: allowed=%v, want %v (%+v)", i, d.Allowed, wantAllowed[i], d)
		}
	}
	if out.Decisions[1].Violation != "outside read bracket" {
		t.Errorf("decision 1 violation = %q", out.Decisions[1].Violation)
	}
	if out.Decisions[3].Outcome != "downward call" || out.Decisions[3].NewRing != 3 {
		t.Errorf("decision 3: %+v", out.Decisions[3])
	}
}

// TestHTTPCheckErrors covers the 4xx paths of /v1/check.
func TestHTTPCheckErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, BatchLimit: 2})

	resp, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/check: status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/check", checkRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/check", checkRequest{Queries: []wireQuery{
		{Op: "access", Ring: 1, Segment: "data", Kind: "sniff"},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400: %s", resp.StatusCode, body)
	}

	over := checkRequest{Queries: make([]wireQuery, 3)}
	for i := range over.Queries {
		over.Queries[i] = wireQuery{Op: "access", Ring: 1, Segment: "data"}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/check", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPBackpressure occupies the only slot behind one waiting
// request and checks the 429 + Retry-After contract.
func TestHTTPBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	svc := srv.Service()
	release := occupy(t, svc)

	req := checkRequest{Queries: []wireQuery{{Op: "access", Ring: 3, Segment: "data"}}}
	result := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/check", req)
		result <- resp.StatusCode
	}()
	waitFor(t, "request to wait for a slot", func() bool { return svc.Snapshot().QueueLen == 1 })

	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("admission bound reached: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	release()
	select {
	case code := <-result:
		if code != http.StatusOK {
			t.Errorf("waiting request: status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting request did not complete after release")
	}
}

// TestHTTPCheckBodyTooLarge checks that a /v1/check body beyond
// BatchLimit*maxQueryBytes is refused with 413 before it is decoded
// in full.
func TestHTTPCheckBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, BatchLimit: 2})
	pad := strings.Repeat(" ", 2*maxQueryBytes)
	body := `{"queries": [` + pad + `{"op": "access", "ring": 4, "segment": "data"}]}`
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %+v", resp.StatusCode, out)
	}
	if want := fmt.Sprintf("request body exceeds %d bytes", 2*maxQueryBytes); out.Error != want {
		t.Errorf("error = %q, want %q", out.Error, want)
	}
}

// TestHTTPCheckTooManyQueries checks that a batch beyond BatchLimit is
// refused with 400 by the handler itself, before any query is
// converted or submitted.
func TestHTTPCheckTooManyQueries(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, BatchLimit: 2})
	over := checkRequest{Queries: make([]wireQuery, 3)}
	for i := range over.Queries {
		// An unknown kind would fail conversion with a different 400:
		// the count check must come first.
		over.Queries[i] = wireQuery{Op: "access", Ring: 1, Segment: "data", Kind: "sniff"}
	}
	resp, body := postJSON(t, ts.URL+"/v1/check", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400: %s", resp.StatusCode, body)
	}
	var out errorResponse
	decode(t, body, &out)
	if want := "service: batch exceeds limit: 3 > 2"; out.Error != want {
		t.Errorf("error = %q, want %q", out.Error, want)
	}
	if got := srv.Service().Snapshot().Batches; got != 0 {
		t.Errorf("batches = %d, want 0: an oversized batch must not reach the service", got)
	}
}

// TestHTTPMutate exercises /v1/mutate and observes the effect through
// /v1/check.
func TestHTTPMutate(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	check := func(wantAllowed bool) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/check", checkRequest{Queries: []wireQuery{
			{Op: "access", Ring: 4, Segment: "data", Kind: "read"},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check: status %d: %s", resp.StatusCode, body)
		}
		var out checkResponse
		decode(t, body, &out)
		if out.Decisions[0].Allowed != wantAllowed {
			t.Fatalf("allowed=%v, want %v: %+v", out.Decisions[0].Allowed, wantAllowed, out.Decisions[0])
		}
	}

	check(true) // ring 4 is inside data's read bracket (R2=4)

	// Narrow the read bracket to ring 1: same flags, new brackets.
	resp, body := postJSON(t, ts.URL+"/v1/mutate", mutateRequest{
		Op: "setbrackets", Segment: "data", Read: true, Write: true, R1: 1, R2: 1, R3: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
	}
	var mr mutateResponse
	decode(t, body, &mr)
	if !mr.OK || mr.Version != 2 {
		t.Fatalf("mutate response %+v, want OK at version 2", mr)
	}
	check(false) // every batch after the publish pins the new snapshot

	// Revoke, observe, restore, observe.
	if resp, body = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "revoke", Segment: "data"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("revoke: status %d: %s", resp.StatusCode, body)
	}
	check(false)
	if resp, body = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "restore", Segment: "data"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "setbrackets", Segment: "data", Read: true, Write: true, R1: 2, R2: 4, R3: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("widen: status %d: %s", resp.StatusCode, body)
	}
	check(true)

	// Error paths: unknown segment (404), bad brackets, unknown op.
	resp, _ = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "revoke", Segment: "nonesuch"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown segment: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "setbrackets", Segment: "data", R1: 4, R2: 2, R3: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad brackets: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "transmogrify", Segment: "data"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPHealthzAndMetrics checks the observability endpoints.
func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if !hr.OK || hr.Workers != 3 || hr.Segments != 3 {
		t.Errorf("healthz %+v", hr)
	}

	// Some traffic, then metrics.
	req := checkRequest{Queries: []wireQuery{
		{Op: "access", Ring: 4, Segment: "data", Kind: "read"},
		{Op: "access", Ring: 7, Segment: "secret", Kind: "read"},
	}}
	for i := 0; i < 4; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("check: status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	resp.Body.Close()
	if snap.Batches != 4 || snap.Queries != 8 || snap.Allowed != 4 || snap.Denied != 4 {
		t.Errorf("metrics counts: %+v", snap)
	}
	if snap.Reads.Pins == 0 || snap.Reads.Lookups == 0 {
		t.Error("metrics report no snapshot-read activity")
	}
	if len(snap.LatencyNs) == 0 {
		t.Error("metrics report no latency buckets")
	}
	if snap.Faults["outside_read_bracket"] != 4 {
		t.Errorf("faults: %v", snap.Faults)
	}
}

// TestHTTPGracefulShutdown checks that a closed service answers 503.
func TestHTTPGracefulShutdown(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	req := checkRequest{Queries: []wireQuery{{Op: "access", Ring: 3, Segment: "data"}}}
	if resp, body := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-close check: status %d: %s", resp.StatusCode, body)
	}
	srv.Close()
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close check: status %d, want 503: %s", resp.StatusCode, body)
	}
	var er errorResponse
	decode(t, body, &er)
	if er.Error == "" {
		t.Error("503 without error body")
	}
}

// TestWireQueryRoundTrip pins the JSON field names of the wire format.
func TestWireQueryRoundTrip(t *testing.T) {
	eff := uint8(3)
	wq := wireQuery{Op: "call", Ring: 4, Segment: "code", Wordno: 1, Kind: "execute",
		EffRing: &eff, SameSegment: true, Chain: []ChainStep{{PR: true, Ring: 2}}}
	buf, err := json.Marshal(wq)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"op"`, `"ring"`, `"segment"`, `"wordno"`, `"kind"`, `"eff_ring"`, `"same_segment"`, `"chain"`} {
		if !bytes.Contains(buf, []byte(field)) {
			t.Errorf("wire JSON %s missing field %s", buf, field)
		}
	}
	var back wireQuery
	decode(t, buf, &back)
	q, err := back.toQuery()
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpCall || q.Ring != 4 || *q.EffRing != 3 || !q.SameSegment {
		t.Errorf("round trip lost fields: %+v", q)
	}
}
