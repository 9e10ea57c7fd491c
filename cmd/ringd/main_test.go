package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/rings"
)

func TestLoadImageDefault(t *testing.T) {
	defs, err := loadImage("")
	if err != nil {
		t.Fatalf("loadImage(\"\"): %v", err)
	}
	if len(defs) == 0 {
		t.Fatal("demo image is empty")
	}
	names := map[string]bool{}
	gated := false
	for _, d := range defs {
		if names[d.Name] {
			t.Errorf("duplicate segment %q", d.Name)
		}
		names[d.Name] = true
		if err := d.Brackets.Validate(); err != nil {
			t.Errorf("segment %q: %v", d.Name, err)
		}
		gated = gated || d.Gates > 0
	}
	if !gated {
		t.Error("demo image has no gated segment")
	}
}

func TestLoadImageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "image.json")
	img := `{"segments": [
		{"name": "a", "size": 64, "read": true, "write": true, "r1": 1, "r2": 3, "r3": 3},
		{"name": "b", "size": 32, "read": true, "execute": true, "r1": 0, "r2": 2, "r3": 5, "gates": 4}
	]}`
	if err := os.WriteFile(path, []byte(img), 0o644); err != nil {
		t.Fatal(err)
	}
	defs, err := loadImage(path)
	if err != nil {
		t.Fatalf("loadImage: %v", err)
	}
	if len(defs) != 2 || defs[0].Name != "a" || defs[1].Gates != 4 {
		t.Errorf("loaded %+v", defs)
	}
	if defs[1].Brackets.R3 != 5 {
		t.Errorf("segment b brackets %+v", defs[1].Brackets)
	}
}

func TestLoadImageErrors(t *testing.T) {
	if _, err := loadImage(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file: want error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := loadImage(bad); err == nil {
		t.Error("bad JSON: want error")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"segments": []}`), 0o644)
	if _, err := loadImage(empty); err == nil {
		t.Error("empty image: want error")
	}
	inverted := filepath.Join(dir, "inverted.json")
	os.WriteFile(inverted, []byte(`{"segments": [{"name": "x", "size": 8, "r1": 5, "r2": 2, "r3": 1}]}`), 0o644)
	if _, err := loadImage(inverted); err == nil {
		t.Error("inverted brackets: want error")
	}
}

// TestHTTPServerTimeouts checks that the daemon's HTTP server bounds
// how long a client may take to send its headers and its whole
// request, how long a response may take to write, and how long an idle
// connection is kept.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.ReadTimeout < hs.ReadHeaderTimeout {
		t.Errorf("ReadTimeout = %v, want at least ReadHeaderTimeout %v", hs.ReadTimeout, hs.ReadHeaderTimeout)
	}
	if hs.WriteTimeout <= 0 {
		t.Errorf("WriteTimeout = %v, want > 0", hs.WriteTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nonsense"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

func TestRunBadImage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-image", filepath.Join(t.TempDir(), "absent.json")}, &out, &errOut); code != 1 {
		t.Errorf("bad image: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "ringd:") {
		t.Errorf("stderr %q lacks ringd: prefix", errOut.String())
	}
}

func TestRunBadShardCount(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-shards", "12"}, &out, &errOut); code != 1 {
		t.Errorf("bad shard count: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "12") {
		t.Errorf("stderr %q does not name the offending count", errOut.String())
	}
}

// TestRunServeAndShutdown boots the daemon on an ephemeral port, drives
// the API end to end, then triggers the graceful drain path.
func TestRunServeAndShutdown(t *testing.T) {
	ready := make(chan string, 1)
	shutdown := make(chan struct{})
	testHookReady = ready
	testHookShutdown = shutdown
	defer func() { testHookReady = nil; testHookShutdown = nil }()

	var out, errOut bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out, &errOut)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health struct {
		OK       bool `json:"ok"`
		Workers  int  `json:"workers"`
		Segments int  `json:"segments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if !health.OK || health.Workers != 2 || health.Segments == 0 {
		t.Errorf("healthz %+v", health)
	}

	// A user-ring read of user_data must pass; a user-ring read of
	// sys_data must hit the read bracket.
	body := `{"queries": [
		{"op": "access", "ring": 5, "segment": "user_data", "kind": "read"},
		{"op": "access", "ring": 5, "segment": "sys_data", "kind": "read"},
		{"op": "call", "ring": 5, "segment": "supervisor", "wordno": 3}
	]}`
	resp, err = http.Post(base+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/check: %v", err)
	}
	var check struct {
		Decisions []struct {
			Allowed bool   `json:"allowed"`
			Outcome string `json:"outcome"`
			NewRing uint8  `json:"new_ring"`
		} `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&check); err != nil {
		t.Fatalf("decode check: %v", err)
	}
	resp.Body.Close()
	if len(check.Decisions) != 3 {
		t.Fatalf("got %d decisions", len(check.Decisions))
	}
	if !check.Decisions[0].Allowed || check.Decisions[1].Allowed {
		t.Errorf("decisions: %+v", check.Decisions)
	}
	if check.Decisions[2].Outcome != "downward call" || check.Decisions[2].NewRing != 0 {
		t.Errorf("supervisor call: %+v", check.Decisions[2])
	}

	close(shutdown)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(out.String(), "drained, exiting") {
		t.Errorf("stdout %q lacks drain message", out.String())
	}
}

// bootDaemon starts the daemon with the given extra flags and returns
// its base URL, a shutdown trigger, and the exit-code channel.
func bootDaemon(t *testing.T, args ...string) (base string, shutdown chan struct{}, done chan int) {
	t.Helper()
	ready := make(chan string, 1)
	shutdown = make(chan struct{})
	testHookReady = ready
	testHookShutdown = shutdown
	t.Cleanup(func() { testHookReady = nil; testHookShutdown = nil })

	done = make(chan int, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, io.Discard)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, shutdown, done
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
		return "", nil, nil
	}
}

// stopDaemon triggers the graceful drain and waits for a clean exit.
func stopDaemon(t *testing.T, shutdown chan struct{}, done chan int) {
	t.Helper()
	close(shutdown)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestRunMultiTenant drives the image registry end to end over the
// wire: load a second tenant, decide against it, seal it (mutations
// 409), evict it (404 afterwards), while the default tenant keeps
// serving the single-tenant surface.
func TestRunMultiTenant(t *testing.T) {
	base, shutdown, done := bootDaemon(t, "-workers", "2", "-worker-budget", "8")
	defer stopDaemon(t, shutdown, done)

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Load a small second tenant.
	code, body := post("/v1/images", `{"name": "acct", "workers": 1, "segments": [
		{"name": "ledger", "size": 64, "read": true, "write": true, "r1": 1, "r2": 3, "r3": 3}
	]}`)
	if code != http.StatusCreated {
		t.Fatalf("load: status %d: %s", code, body)
	}

	// Decide against it through the tenant-scoped endpoint.
	code, body = post("/v1/t/acct/check", `{"queries": [
		{"op": "access", "ring": 2, "segment": "ledger", "kind": "read"},
		{"op": "access", "ring": 5, "segment": "ledger", "kind": "read"}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("tenant check: status %d: %s", code, body)
	}
	var check struct {
		Decisions []struct {
			Allowed bool `json:"allowed"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(body, &check); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(check.Decisions) != 2 || !check.Decisions[0].Allowed || check.Decisions[1].Allowed {
		t.Errorf("tenant decisions: %+v", check.Decisions)
	}

	// The default tenant must not know the new tenant's segments.
	code, body = post("/v1/check", `{"queries": [{"op": "access", "ring": 2, "segment": "ledger", "kind": "read"}]}`)
	if code != http.StatusOK {
		t.Fatalf("default check: status %d: %s", code, body)
	}
	var defCheck struct {
		Decisions []struct {
			Err string `json:"err"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(body, &defCheck); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if defCheck.Decisions[0].Err == "" {
		t.Error("default tenant resolved another tenant's segment name")
	}

	// The listing names both tenants.
	resp, err := http.Get(base + "/v1/images")
	if err != nil {
		t.Fatalf("GET /v1/images: %v", err)
	}
	var list struct {
		Tenants []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"tenants"`
		WorkersInUse int `json:"workers_in_use"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list.Tenants) != 2 || list.Tenants[0].Name != "acct" || list.Tenants[1].Name != "default" {
		t.Errorf("listing: %+v", list)
	}
	if list.WorkersInUse != 3 {
		t.Errorf("workers in use = %d, want 3 (2 default + 1 acct)", list.WorkersInUse)
	}

	// Seal: decisions keep flowing, mutations answer 409.
	if code, body = post("/v1/images/acct/seal", ""); code != http.StatusOK {
		t.Fatalf("seal: status %d: %s", code, body)
	}
	if code, body = post("/v1/t/acct/mutate", `{"op": "revoke", "segment": "ledger"}`); code != http.StatusConflict {
		t.Errorf("mutate sealed: status %d, want 409: %s", code, body)
	}
	if code, body = post("/v1/t/acct/check", `{"queries": [{"op": "access", "ring": 2, "segment": "ledger", "kind": "read"}]}`); code != http.StatusOK {
		t.Errorf("check sealed: status %d, want 200: %s", code, body)
	}

	// Evict: the name disappears from the API.
	if code, body = post("/v1/images/acct/evict", ""); code != http.StatusOK {
		t.Fatalf("evict: status %d: %s", code, body)
	}
	if code, _ = post("/v1/t/acct/check", `{"queries": [{"op": "access", "ring": 2, "segno": 0}]}`); code != http.StatusNotFound {
		t.Errorf("check evicted: status %d, want 404", code)
	}
	if code, _ = post("/v1/images/acct/seal", ""); code != http.StatusNotFound {
		t.Errorf("seal evicted: status %d, want 404", code)
	}
}

// TestRunShutdownWithQueuedBatches is the graceful-drain regression:
// a burst of concurrent batches is in flight when the shutdown
// triggers. Every response must be a clean 200 (drained before the
// listener closed) or a connection/503 refusal — never a 500 — and
// the daemon must still exit 0.
func TestRunShutdownWithQueuedBatches(t *testing.T) {
	base, shutdown, done := bootDaemon(t, "-workers", "1", "-queue", "4")

	body := `{"queries": [
		{"op": "access", "ring": 5, "segment": "user_data", "kind": "read"},
		{"op": "call", "ring": 5, "segment": "supervisor", "wordno": 3},
		{"op": "effring", "ring": 2, "chain": [{"ring": 3, "segno": 1}, {"pr": true, "ring": 6}]}
	]}`
	const inflight = 16
	var wg sync.WaitGroup
	statuses := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/check", "application/json", strings.NewReader(body))
			if err != nil {
				return // connection refused after the listener closed
			}
			defer resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	// Trigger the drain while the burst is in flight.
	close(shutdown)
	wg.Wait()
	close(statuses)
	for code := range statuses {
		switch code {
		case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
		default:
			t.Errorf("in-flight batch answered %d during drain", code)
		}
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain with batches queued")
	}
}

// TestRunMutationRacingDrain pins the 409 contract at daemon level: a
// stream of mutations racing an eviction must see only 200 (applied
// before the drain), 409 (conflict during/after the state flip), or
// 404 (tenant already gone) — never a 500.
func TestRunMutationRacingDrain(t *testing.T) {
	base, shutdown, done := bootDaemon(t, "-worker-budget", "8")
	defer stopDaemon(t, shutdown, done)

	code := postStatus(t, base+"/v1/images", `{"name": "victim", "workers": 1, "segments": [
		{"name": "seg", "size": 16, "read": true, "write": true, "r1": 1, "r2": 3, "r3": 3}
	]}`)
	if code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	bad := make(chan int, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf(`{"op": "setbrackets", "segment": "seg", "read": true, "write": true, "r1": 1, "r2": %d, "r3": %d}`, 2+i%2, 3)
			switch s := postStatus(t, base+"/v1/t/victim/mutate", body); s {
			case http.StatusOK, http.StatusConflict, http.StatusNotFound:
			default:
				select {
				case bad <- s:
				default:
				}
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if code := postStatus(t, base+"/v1/images/victim/evict", ""); code != http.StatusOK {
		t.Errorf("evict: status %d", code)
	}
	close(stop)
	wg.Wait()
	close(bad)
	for s := range bad {
		t.Errorf("mutation racing drain answered %d (want 200/409/404)", s)
	}
}

// postStatus posts a body and returns only the status code, or 0 when
// the request fails. It reports failures with t.Errorf, so a goroutine
// other than the test's may call it.
func postStatus(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0
	}
	defer resp.Body.Close()
	var sink bytes.Buffer
	sink.ReadFrom(resp.Body)
	return resp.StatusCode
}

// TestRunDrainClosesSilentConnection holds open a TCP connection that
// never sends a request: the drain must close it instead of waiting
// out the 5 s net/http grants a new connection.
func TestRunDrainClosesSilentConnection(t *testing.T) {
	base, shutdown, done := bootDaemon(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// A request on another connection proves the server is accepting,
	// so the silent connection is past Accept before the drain starts.
	if resp, err := http.Get(base + "/healthz"); err != nil {
		t.Fatalf("GET /healthz: %v", err)
	} else {
		resp.Body.Close()
	}
	start := time.Now()
	close(shutdown)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d, want 0", code)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("drain took %v with a silent connection open, want under 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("drain still waiting on a connection that never sent a request")
	}
}

// TestRunWireListener boots the daemon with both listeners and drives
// the binary streaming protocol end to end through rings.DialRemote:
// health, decisions consistent with the demo image, a mutation, and a
// graceful drain with the session still open.
func TestRunWireListener(t *testing.T) {
	ready := make(chan string, 1)
	wireReady := make(chan string, 1)
	shutdown := make(chan struct{})
	testHookReady = ready
	testHookWireReady = wireReady
	testHookShutdown = shutdown
	defer func() { testHookReady = nil; testHookWireReady = nil; testHookShutdown = nil }()

	var out, errOut bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-listen-wire", "127.0.0.1:0", "-workers", "2"}, &out, &errOut)
	}()
	var wireAddr string
	select {
	case wireAddr = <-wireReady:
	case <-time.After(10 * time.Second):
		t.Fatal("wire listener did not come up")
	}
	<-ready // let the HTTP hook drain so the daemon reaches its select

	rc, err := rings.DialRemote(wireAddr, rings.RemoteConfig{})
	if err != nil {
		t.Fatalf("DialRemote: %v", err)
	}
	defer rc.Close()

	h, err := rc.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Workers != 2 || h.Segments == 0 {
		t.Errorf("health = %+v", h)
	}

	// Same semantics TestRunServeAndShutdown checks over HTTP: a
	// user-ring read of user_data passes, sys_data hits the bracket,
	// and a supervisor call goes downward to ring 0.
	ds, err := rc.Check(
		rings.Query{Op: rings.OpAccess, Ring: 5, Segment: "user_data", Kind: rings.AccessRead},
		rings.Query{Op: rings.OpAccess, Ring: 5, Segment: "sys_data", Kind: rings.AccessRead},
		rings.Query{Op: rings.OpCall, Ring: 5, Segment: "supervisor", Wordno: 3},
	)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !ds[0].Allowed || ds[1].Allowed {
		t.Errorf("decisions: %+v", ds[:2])
	}
	if ds[2].Outcome != "downward call" || ds[2].NewRing != 0 {
		t.Errorf("supervisor call: %+v", ds[2])
	}

	close(shutdown)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain with a wire session open")
	}
	if !strings.Contains(out.String(), "wire protocol v") {
		t.Errorf("stdout %q lacks wire startup line", out.String())
	}

	// The drained server must refuse further work on this session.
	if _, err := rc.Check(rings.Query{Op: rings.OpAccess, Ring: 5, Segment: "user_data", Kind: rings.AccessRead}); err == nil {
		t.Error("check after drain: want error")
	}
}
