package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// The daemon's HTTP golden fixtures (internal/tenant/testdata/golden)
// carry the service's own answers: the decisions under their JSON
// field names, the store's shape and version, and the messages of
// ErrUnknownSegment and ErrQueueFull. The tests here replay the
// fixture sequence on the service directly, without HTTP, so a service
// change that would drift a fixture fails in the package that made it.
// They only read the fixtures; the tenant package's
// TestGoldenReplayAgainstDefaultTenant rewrites them under -update.

// readFixture decodes the golden fixture name into v, refusing fields
// v does not have.
func readFixture(t *testing.T, name string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "tenant", "testdata", "golden", name))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decode fixture %s: %v", name, err)
	}
}

// checkDecisions submits queries and compares the decisions with the
// fixture's.
func checkDecisions(t *testing.T, svc *Service, fixture string, queries []Query) {
	t.Helper()
	var want struct {
		Decisions []Decision `json:"decisions"`
	}
	readFixture(t, fixture, &want)
	got, err := svc.Submit(context.Background(), queries)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !reflect.DeepEqual(got, want.Decisions) {
		t.Errorf("decisions drifted from %s\n got: %+v\nwant: %+v", fixture, got, want.Decisions)
	}
}

// checkError compares err's message with the fixture's error body.
func checkError(t *testing.T, fixture string, err error) {
	t.Helper()
	var want struct {
		Error string `json:"error"`
	}
	readFixture(t, fixture, &want)
	if err == nil || err.Error() != want.Error {
		t.Errorf("error %v, want %q (%s)", err, want.Error, fixture)
	}
}

// TestHTTPGolden runs the fixtures' ordered check/mutate sequence on a
// single-slot service over the same image the daemon test loads, and
// checks every answer the service contributes to a fixture.
func TestHTTPGolden(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	st := svc.Store()

	var health struct {
		OK       bool   `json:"ok"`
		Workers  int    `json:"workers"`
		Segments int    `json:"segments"`
		Shards   int    `json:"shards"`
		Version  uint64 `json:"version"`
	}
	readFixture(t, "healthz.json", &health)
	if svc.Workers() != health.Workers || len(st.Segments()) != health.Segments ||
		st.Shards() != health.Shards || st.Version() != health.Version {
		t.Errorf("service shape workers=%d segments=%d shards=%d version=%d, healthz.json has %+v",
			svc.Workers(), len(st.Segments()), st.Shards(), st.Version(), health)
	}

	checkDecisions(t, svc, "check_ok.json", []Query{
		{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
		{Op: OpAccess, Ring: 5, Segment: "data", Kind: core.AccessRead},
		{Op: OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead},
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},
		{Op: OpReturn, Ring: 2, Segment: "code", EffRing: ring(3)},
		{Op: OpEffRing, Ring: 2, Chain: []ChainStep{{PR: true, Ring: 3}}},
	})

	version, err := st.Apply(Mutation{Op: MutSetBrackets, Segment: "data", Read: true, Write: true,
		Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}})
	if err != nil {
		t.Fatalf("Apply setbrackets: %v", err)
	}
	var mutated struct {
		OK      bool   `json:"ok"`
		Version uint64 `json:"version"`
	}
	readFixture(t, "mutate_ok.json", &mutated)
	if version != mutated.Version {
		t.Errorf("version after setbrackets = %d, mutate_ok.json has %d", version, mutated.Version)
	}

	checkDecisions(t, svc, "check_after_mutate.json", []Query{
		{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
	})

	_, err = st.Apply(Mutation{Op: MutRevoke, Segment: "nonesuch"})
	if !errors.Is(err, ErrUnknownSegment) {
		t.Errorf("Apply on an unknown segment: err = %v, want ErrUnknownSegment", err)
	}
	checkError(t, "mutate_unknown_segment.json", err)
}

// TestHTTPGoldenQueueFull sheds a batch from a single-slot, depth-1
// service whose slot is taken and whose one queue place is waited in,
// and checks that the error is the one check_queue_full.json carries.
func TestHTTPGoldenQueueFull(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	release := occupy(t, svc)

	qs := []Query{{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}}
	waited := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), qs)
		waited <- err
	}()
	waitFor(t, "caller to wait for a slot", func() bool { return svc.Snapshot().QueueLen == 1 })

	_, err := svc.Submit(context.Background(), qs)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit beyond the admission bound: err = %v, want ErrQueueFull", err)
	}
	checkError(t, "check_queue_full.json", err)

	release()
	select {
	case err := <-waited:
		if err != nil {
			t.Errorf("waiting batch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting batch did not complete after release")
	}
}
