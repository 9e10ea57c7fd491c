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
