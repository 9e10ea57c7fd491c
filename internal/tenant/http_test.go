package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
)

// newTestHandler boots a registry with a default tenant behind the
// multi-tenant handler.
func newTestHandler(t *testing.T, opt HandlerOptions) (*Handler, *httptest.Server) {
	t.Helper()
	r := NewRegistry(Config{WorkerBudget: 16})
	if _, err := r.Load(DefaultTenant, testImage(), TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("load default: %v", err)
	}
	h := NewHandler(r, opt)
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})
	return h, ts
}

// do issues a request and decodes the JSON body into a generic map.
func do(t *testing.T, method, url, body string) (int, map[string]interface{}) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := map[string]interface{}{}
	if buf.Len() > 0 {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, buf.String(), err)
		}
	}
	return resp.StatusCode, out
}

func TestHandlerImagesLifecycle(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{})

	// Load a tenant inline.
	code, body := do(t, "POST", ts.URL+"/v1/images", `{"name": "beta", "workers": 1, "segments": [
		{"name": "seg", "size": 16, "read": true, "write": true, "r1": 1, "r2": 3, "r3": 3}
	]}`)
	if code != http.StatusCreated || body["ok"] != true || body["state"] != "active" {
		t.Fatalf("load: %d %v", code, body)
	}

	// Listing shows both tenants, sorted.
	code, body = do(t, "GET", ts.URL+"/v1/images", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %v", code, body)
	}
	tenants := body["tenants"].([]interface{})
	if len(tenants) != 2 ||
		tenants[0].(map[string]interface{})["name"] != "beta" ||
		tenants[1].(map[string]interface{})["name"] != DefaultTenant {
		t.Errorf("listing: %v", tenants)
	}

	// Detail carries the status row and the metrics snapshot.
	code, body = do(t, "GET", ts.URL+"/v1/images/beta", "")
	if code != http.StatusOK || body["status"] == nil || body["metrics"] == nil {
		t.Errorf("detail: %d %v", code, body)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/images/ghost", ""); code != http.StatusNotFound {
		t.Errorf("detail of unknown tenant: %d, want 404", code)
	}

	// Tenant-scoped check and mutate work while active.
	code, _ = do(t, "POST", ts.URL+"/v1/t/beta/check",
		`{"queries": [{"op": "access", "ring": 2, "segment": "seg", "kind": "read"}]}`)
	if code != http.StatusOK {
		t.Errorf("tenant check: %d", code)
	}
	code, _ = do(t, "POST", ts.URL+"/v1/t/beta/mutate",
		`{"op": "setbrackets", "segment": "seg", "read": true, "r1": 1, "r2": 2, "r3": 2}`)
	if code != http.StatusOK {
		t.Errorf("tenant mutate: %d", code)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/t/beta/healthz", ""); code != http.StatusOK {
		t.Errorf("tenant healthz: %d", code)
	}
	if code, _ = do(t, "GET", ts.URL+"/v1/t/beta/metrics", ""); code != http.StatusOK {
		t.Errorf("tenant metrics: %d", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/t/beta/sniff", ""); code != http.StatusNotFound {
		t.Errorf("unknown tenant endpoint: %d, want 404", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/t/ghost/check", "{}"); code != http.StatusNotFound {
		t.Errorf("check of unknown tenant: %d, want 404", code)
	}

	// Seal: mutations 409, decisions still 200.
	if code, _ = do(t, "POST", ts.URL+"/v1/images/beta/seal", ""); code != http.StatusOK {
		t.Fatalf("seal: %d", code)
	}
	code, body = do(t, "POST", ts.URL+"/v1/t/beta/mutate", `{"op": "revoke", "segment": "seg"}`)
	if code != http.StatusConflict {
		t.Errorf("mutate sealed: %d %v, want 409", code, body)
	}
	code, _ = do(t, "POST", ts.URL+"/v1/t/beta/check",
		`{"queries": [{"op": "access", "ring": 2, "segment": "seg", "kind": "read"}]}`)
	if code != http.StatusOK {
		t.Errorf("check sealed: %d, want 200", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/images/beta/seal", ""); code != http.StatusConflict {
		t.Errorf("double seal: %d, want 409", code)
	}

	// Evict via DELETE; the tenant is gone afterwards.
	if code, _ = do(t, "DELETE", ts.URL+"/v1/images/beta", ""); code != http.StatusOK {
		t.Fatalf("evict: %d", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/t/beta/check", "{}"); code != http.StatusNotFound {
		t.Errorf("check evicted: %d, want 404", code)
	}
	if code, _ = do(t, "POST", ts.URL+"/v1/images/beta/evict", ""); code != http.StatusNotFound {
		t.Errorf("double evict: %d, want 404", code)
	}
}

func TestHandlerLoadRejections(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{})

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{nope`, http.StatusBadRequest},
		{"bad name", `{"name": "a/b", "segments": [{"name": "s", "size": 1, "read": true}]}`, http.StatusBadRequest},
		{"neither source", `{"name": "x"}`, http.StatusBadRequest},
		{"both sources", `{"name": "x", "file": "f.json", "segments": [{"name": "s", "size": 1, "read": true}]}`, http.StatusBadRequest},
		{"empty image", `{"name": "x", "segments": []}`, http.StatusBadRequest},
		{"invalid brackets", `{"name": "x", "segments": [{"name": "s", "size": 1, "read": true, "r1": 5, "r2": 2, "r3": 1}]}`, http.StatusBadRequest},
		{"duplicate", `{"name": "default", "segments": [{"name": "s", "size": 1, "read": true}]}`, http.StatusConflict},
		{"file loads disabled", `{"name": "x", "file": "f.json"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, body := do(t, "POST", ts.URL+"/v1/images", c.body); code != c.want {
			t.Errorf("%s: %d %v, want %d", c.name, code, body, c.want)
		}
	}

	// The worker budget answers 409.
	code, body := do(t, "POST", ts.URL+"/v1/images",
		`{"name": "greedy", "workers": 99, "segments": [{"name": "s", "size": 1, "read": true}]}`)
	if code != http.StatusConflict {
		t.Errorf("over budget: %d %v, want 409", code, body)
	}
}

// TestHandlerRejectsGateOverflow checks that a gate count above
// seg.MaxGate, which the descriptor's gate field cannot hold, is
// refused by an image load and by a mutation, and that the refused
// mutation leaves decisions as they were.
func TestHandlerRejectsGateOverflow(t *testing.T) {
	r := NewRegistry(Config{WorkerBudget: 16})
	wide := []service.Segment{{Name: "s", Size: seg.MaxBound, Execute: true,
		Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: seg.MaxGate}}
	if _, err := r.Load(DefaultTenant, wide, TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("load default: %v", err)
	}
	h := NewHandler(r, HandlerOptions{})
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		h.Close()
	})

	load := func(name string, gates int) string {
		return fmt.Sprintf(`{"name": %q, "segments": [{"name": "s", "size": %d, "execute": true, "r1": 1, "r2": 3, "r3": 5, "gates": %d}]}`,
			name, seg.MaxBound, gates)
	}
	if code, body := do(t, "POST", ts.URL+"/v1/images", load("over", seg.MaxGate+1)); code != http.StatusBadRequest {
		t.Errorf("load with gates %d: %d %v, want 400", seg.MaxGate+1, code, body)
	}
	if code, body := do(t, "POST", ts.URL+"/v1/images", load("limit", seg.MaxGate)); code != http.StatusCreated {
		t.Errorf("load with gates %d: %d %v, want 201", seg.MaxGate, code, body)
	}

	// A call to word 5 passes the gate check only while the gate count
	// is kept whole; a truncated count (0 for 16384) would refuse it.
	check := func() interface{} {
		t.Helper()
		code, body := do(t, "POST", ts.URL+"/v1/check",
			`{"queries": [{"op": "call", "ring": 4, "segment": "s", "wordno": 5}]}`)
		if code != http.StatusOK {
			t.Fatalf("check: %d %v", code, body)
		}
		return body["decisions"]
	}
	before := check()
	if d := before.([]interface{})[0].(map[string]interface{}); d["allowed"] != true {
		t.Fatalf("call to word 5: %v, want allowed", d)
	}
	mutate := fmt.Sprintf(`{"op": "setbrackets", "segment": "s", "execute": true, "r1": 1, "r2": 3, "r3": 5, "gates": %d}`, seg.MaxGate+1)
	if code, body := do(t, "POST", ts.URL+"/v1/mutate", mutate); code != http.StatusBadRequest {
		t.Errorf("mutate with gates %d: %d %v, want 400", seg.MaxGate+1, code, body)
	}
	if after := check(); !reflect.DeepEqual(after, before) {
		t.Errorf("decisions changed by a refused mutation: %v, want %v", after, before)
	}
}

func TestHandlerFileLoads(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"segments": [{"name": "s", "size": 4, "read": true, "r1": 1, "r2": 2, "r3": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte(`{nope`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestHandler(t, HandlerOptions{ImageDir: dir})

	if code, body := do(t, "POST", ts.URL+"/v1/images", `{"name": "filed", "workers": 1, "file": "good.json"}`); code != http.StatusCreated {
		t.Errorf("file load: %d %v, want 201", code, body)
	}
	// A corrupt image file is a 400, a missing one a 404, and a path
	// escaping the image directory is rejected before any read.
	if code, _ := do(t, "POST", ts.URL+"/v1/images", `{"name": "c1", "file": "corrupt.json"}`); code != http.StatusBadRequest {
		t.Errorf("corrupt file load: %d, want 400", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/images", `{"name": "c2", "file": "absent.json"}`); code != http.StatusNotFound {
		t.Errorf("missing file load: %d, want 404", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/images", `{"name": "c3", "file": "../../../etc/passwd"}`); code == http.StatusCreated {
		t.Error("path escape load unexpectedly succeeded")
	}
}

// TestHandlerHealthzWithoutDefault pins the degraded registry-level
// liveness answer of a daemon with no default image.
func TestHandlerHealthzWithoutDefault(t *testing.T) {
	r := NewRegistry(Config{})
	h := NewHandler(r, HandlerOptions{})
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); h.Close() })

	code, body := do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || body["ok"] != true {
		t.Errorf("healthz without default: %d %v", code, body)
	}
	// The single-tenant decision surface has nothing to route to.
	if code, _ := do(t, "POST", ts.URL+"/v1/check", "{}"); code != http.StatusNotFound {
		t.Errorf("check without default: %d, want 404", code)
	}
}

// postJSON marshals body, posts it to url and returns the response
// with its body.
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
	_, ts := serveDefault(t, TenantConfig{Workers: 2})
	eff := uint8(3)
	req := CheckRequest{Queries: []CheckQuery{
		{Op: "access", Ring: 4, Segment: "data", Wordno: 3, Kind: "read"},
		{Op: "access", Ring: 5, Segment: "data", Kind: "read"},
		{Op: "access", Ring: 2, Segment: "data", Kind: "write"},
		{Op: "call", Ring: 4, Segment: "code", Wordno: 1},
		{Op: "return", Ring: 2, Segment: "code", EffRing: &eff},
		{Op: "effring", Ring: 2, Chain: []service.ChainStep{{PR: true, Ring: 3}}},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out CheckResponse
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

// TestHTTPCheckFallback checks that a batch outside the codec's subset
// (escaped strings, case-folded, unknown and duplicate keys, null,
// trailing data), which encoding/json decodes instead, is answered
// byte for byte as the same batch inside it, and that a 200 carries
// Content-Length.
func TestHTTPCheckFallback(t *testing.T) {
	_, ts := serveDefault(t, TenantConfig{Workers: 1})
	// Enough queries that the answer outgrows net/http's buffer, past
	// which a response without Content-Length is chunked.
	const n = 20
	last := `{"op":"call","ring":4,"segment":"code","wordno":1}]}`
	subset := `{"queries":[` + strings.Repeat(`{"op":"access","ring":4,"segment":"data","wordno":3,"kind":"read"},`+
		`{"op":"effring","ring":2,"chain":[{"pr":true,"ring":3}]},`, n) + last
	outside := `{"queries":[` + strings.Repeat(`{"OP":"\u0061ccess","ring":4,"segment":"data","wordno":3,"kind":"read","color":null},`+
		`{"op":"effring","Ring":2,"chain":[{"pr":false,"pr":true,"ring":3}]},`, n) + last + " trailing"
	var bodies [2][]byte
	for i, body := range []string{subset, outside} {
		resp, out := goldenDo(t, "POST", ts.URL+"/v1/check", body, http.StatusOK)
		if resp.ContentLength != int64(len(out)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("body %d: Content-Length %d, transfer encoding %v for %d bytes", i, resp.ContentLength, resp.TransferEncoding, len(out))
		}
		bodies[i] = out
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("fallback answer differs:\n%s\nsubset answer:\n%s", bodies[1], bodies[0])
	}
}

// TestHTTPCheckErrors covers the 4xx paths of /v1/check.
func TestHTTPCheckErrors(t *testing.T) {
	_, ts := serveDefault(t, TenantConfig{Workers: 1, BatchLimit: 2})

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

	resp, _ = postJSON(t, ts.URL+"/v1/check", CheckRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/check", CheckRequest{Queries: []CheckQuery{
		{Op: "access", Ring: 1, Segment: "data", Kind: "sniff"},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400: %s", resp.StatusCode, body)
	}

	over := CheckRequest{Queries: make([]CheckQuery, 3)}
	for i := range over.Queries {
		over.Queries[i] = CheckQuery{Op: "access", Ring: 1, Segment: "data"}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/check", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPBackpressure saturates a single-slot, depth-1 tenant and
// checks the 429 + Retry-After contract, then that decisions resume
// once the load stops.
func TestHTTPBackpressure(t *testing.T) {
	tn, ts := serveDefault(t, TenantConfig{Workers: 1, QueueDepth: 1, BatchLimit: 4096})
	stop := saturate(t, tn)
	body := `{"queries": [{"op": "access", "ring": 3, "segment": "data"}]}`
	resp, _ := postUntilShed(t, ts.URL+"/v1/check", body)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	stop()
	if resp, out := postJSON(t, ts.URL+"/v1/check", json.RawMessage(body)); resp.StatusCode != http.StatusOK {
		t.Errorf("after the load stopped: status %d: %s", resp.StatusCode, out)
	}
}

// TestHTTPCheckBodyTooLarge checks that a /v1/check body beyond
// BatchLimit*maxQueryBytes is refused with 413 before it is decoded
// in full.
func TestHTTPCheckBodyTooLarge(t *testing.T) {
	_, ts := serveDefault(t, TenantConfig{Workers: 1, BatchLimit: 2})
	pad := strings.Repeat(" ", 2*maxQueryBytes)
	body := `{"queries": [` + pad + `{"op": "access", "ring": 4, "segment": "data"}]}`
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out ErrorResponse
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
	tn, ts := serveDefault(t, TenantConfig{Workers: 1, BatchLimit: 2})
	over := CheckRequest{Queries: make([]CheckQuery, 3)}
	for i := range over.Queries {
		// An unknown kind would fail conversion with a different 400:
		// the count check must come first.
		over.Queries[i] = CheckQuery{Op: "access", Ring: 1, Segment: "data", Kind: "sniff"}
	}
	resp, body := postJSON(t, ts.URL+"/v1/check", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400: %s", resp.StatusCode, body)
	}
	var out ErrorResponse
	decode(t, body, &out)
	if want := "service: batch exceeds limit: 3 > 2"; out.Error != want {
		t.Errorf("error = %q, want %q", out.Error, want)
	}
	if got := tn.Service().Snapshot().Batches; got != 0 {
		t.Errorf("batches = %d, want 0: an oversized batch must not reach the service", got)
	}
}

// TestHTTPMutate exercises /v1/mutate and observes the effect through
// /v1/check.
func TestHTTPMutate(t *testing.T) {
	_, ts := serveDefault(t, TenantConfig{Workers: 2})
	check := func(wantAllowed bool) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/check", CheckRequest{Queries: []CheckQuery{
			{Op: "access", Ring: 4, Segment: "data", Kind: "read"},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check: status %d: %s", resp.StatusCode, body)
		}
		var out CheckResponse
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
	resp, body = postJSON(t, ts.URL+"/v1/mutate", mutateRequest{Op: "transmogrify", Segment: "data"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	decode(t, body, &er)
	if want := `unknown mutation op "transmogrify"`; er.Error != want {
		t.Errorf("unknown op: error %q, want %q", er.Error, want)
	}
}

// TestHTTPMutateBodyTooLarge checks that a mutation body beyond the
// one-query allowance is refused with 413, even when it holds a valid
// mutation.
func TestHTTPMutateBodyTooLarge(t *testing.T) {
	tn, ts := serveDefault(t, TenantConfig{Workers: 1})
	body := `{"op": "revoke", "segment": "data", "pad": "` + strings.Repeat("x", maxQueryBytes) + `"}`
	code, out := do(t, "POST", ts.URL+"/v1/mutate", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded mutation: %d %v, want 413", code, out)
	}
	if want := fmt.Sprintf("request body exceeds %d bytes", maxQueryBytes); out["error"] != want {
		t.Errorf("error = %v, want %q", out["error"], want)
	}
	if v := tn.Store().Version(); v != 0 {
		t.Errorf("store version %d after a refused mutation, want 0", v)
	}
}

// TestHTTPLoadBodyTooLarge checks that an image load beyond
// MaxSegments one-query allowances is refused with 413, even when it
// holds a valid image.
func TestHTTPLoadBodyTooLarge(t *testing.T) {
	_, ts := newTestHandler(t, HandlerOptions{})
	body := `{"name": "big", "workers": 1, "segments": [{"name": "s", "size": 1, "read": true}], "pad": "` +
		strings.Repeat("x", service.MaxSegments*maxQueryBytes) + `"}`
	code, out := do(t, "POST", ts.URL+"/v1/images", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded image: %d %v, want 413", code, out)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/images/big", ""); code != http.StatusNotFound {
		t.Errorf("refused image was loaded: detail %d, want 404", code)
	}
}

// TestHTTPHealthzAndMetrics checks the observability endpoints.
func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := serveDefault(t, TenantConfig{Workers: 3})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if !hr.OK || hr.Workers != 3 || hr.Segments != 3 {
		t.Errorf("healthz %+v", hr)
	}

	// Some traffic, then metrics.
	req := CheckRequest{Queries: []CheckQuery{
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
	var snap service.Snapshot
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
	tn, ts := serveDefault(t, TenantConfig{Workers: 1})
	req := CheckRequest{Queries: []CheckQuery{{Op: "access", Ring: 3, Segment: "data"}}}
	if resp, body := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-close check: status %d: %s", resp.StatusCode, body)
	}
	tn.Service().Close()
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close check: status %d, want 503: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	decode(t, body, &er)
	if er.Error == "" {
		t.Error("503 without error body")
	}
}

// TestCheckQueryRoundTrip pins the JSON field names of a query and
// checks that encoding and decoding keep every field, and that an
// invalid access kind is refused rather than read as the default.
func TestCheckQueryRoundTrip(t *testing.T) {
	eff := core.Ring(3)
	q := service.Query{Op: service.OpCall, Ring: 4, Segment: "code", Wordno: 1,
		EffRing: &eff, SameSegment: true, Chain: []service.ChainStep{{PR: true, Ring: 2}}}
	buf, err := json.Marshal(CheckQuery{Op: "access", Ring: 4, Segment: "code", Wordno: 1, Kind: "execute",
		EffRing: new(uint8), SameSegment: true, Chain: q.Chain})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"op"`, `"ring"`, `"segment"`, `"wordno"`, `"kind"`, `"eff_ring"`, `"same_segment"`, `"chain"`} {
		if !bytes.Contains(buf, []byte(field)) {
			t.Errorf("query JSON %s missing field %s", buf, field)
		}
	}

	req := NewCheckRequest([]service.Query{q, {Op: service.OpAccess, Ring: 5, Segno: 2, Kind: core.AccessWrite}})
	buf, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back CheckRequest
	decode(t, buf, &back)
	for i, want := range []service.Query{q, {Op: service.OpAccess, Ring: 5, Segno: 2, Kind: core.AccessWrite}} {
		got, err := back.Queries[i].Query()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d round trip: %+v, want %+v", i, got, want)
		}
	}

	bad := NewCheckRequest([]service.Query{{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: 3}})
	if _, err := bad.Queries[0].Query(); err == nil {
		t.Errorf("kind %q decoded without error", bad.Queries[0].Kind)
	}
}

// TestHTTPLoadingTenant checks that every decision endpoint of a
// tenant whose image is still loading answers 503 rather than reaching
// its not-yet-built service.
func TestHTTPLoadingTenant(t *testing.T) {
	h, ts := newTestHandler(t, HandlerOptions{})
	r := h.Registry()
	loading := &Tenant{name: "pending"}
	loading.state.Store(int32(StateLoading))
	r.mu.Lock()
	r.tenants[loading.name] = loading
	r.mu.Unlock()
	t.Cleanup(func() {
		r.mu.Lock()
		delete(r.tenants, loading.name)
		r.mu.Unlock()
	})

	for _, c := range []struct{ method, endpoint, body string }{
		{"GET", "healthz", ""},
		{"GET", "metrics", ""},
		{"POST", "check", `{"queries": [{"op": "access", "ring": 4, "segment": "data"}]}`},
		{"POST", "mutate", `{"op": "revoke", "segment": "data"}`},
	} {
		code, body := do(t, c.method, ts.URL+"/v1/t/pending/"+c.endpoint, c.body)
		if code != http.StatusServiceUnavailable || body["error"] != ErrLoading.Error() {
			t.Errorf("%s of a loading tenant: %d %v, want 503 %q", c.endpoint, code, body, ErrLoading.Error())
		}
	}
}
