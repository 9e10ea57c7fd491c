package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
	"repro/internal/tenant"
)

// readGolden loads a recorded HTTP fixture from the tenant package's
// golden set and unmarshals it into v.
func readGolden(t *testing.T, name string, v interface{}) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "tenant", "testdata", "golden", name))
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
}

// stripWorker zeroes the worker attribution, the one decision field
// that legitimately differs between transports (it names whichever
// pool worker drained the batch).
func stripWorker(ds []service.Decision) []service.Decision {
	out := make([]service.Decision, len(ds))
	copy(out, ds)
	for i := range out {
		out[i].Worker = 0
	}
	return out
}

// TestDifferentialGoldenReplay replays the recorded HTTP golden
// session — the byte-for-byte fixtures the JSON API is pinned to —
// through the binary protocol, asserting decision-for-decision
// identical results. The JSON fixtures are the oracle: if this test
// passes, a wire client and an HTTP client querying the same image
// cannot disagree.
func TestDifferentialGoldenReplay(t *testing.T) {
	// Workers: 1 matches the server the fixtures were recorded
	// against, so even the worker attribution lines up.
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// healthz.json <-> ping frame.
	var health tenant.HealthResponse
	readGolden(t, "healthz.json", &health)
	h, err := c.Ping()
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if !health.OK || int(h.Workers) != health.Workers || int(h.Segments) != health.Segments ||
		int(h.Shards) != health.Shards || h.StoreVersion != health.Version {
		t.Errorf("ping = %+v, healthz fixture = %+v", h, health)
	}

	// check_ok.json <-> the six-query batch.
	var checkOK tenant.CheckResponse
	readGolden(t, "check_ok.json", &checkOK)
	got, err := c.Check(goldenQueries()...)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !reflect.DeepEqual(got, checkOK.Decisions) {
		t.Errorf("wire decisions diverge from check_ok.json:\n got %+v\nwant %+v", got, checkOK.Decisions)
	}

	// check_empty.json <-> error frame with the same message, same
	// 400 code the HTTP route answers.
	var fixtureErr tenant.ErrorResponse
	readGolden(t, "check_empty.json", &fixtureErr)
	err = c.CheckInto(nil, nil)
	var ef *ErrFrame
	if !errors.As(err, &ef) || ef.Code != CodeBadRequest || ef.Msg != fixtureErr.Error {
		t.Errorf("empty batch on wire = %v, HTTP fixture says 400 %q", err, fixtureErr.Error)
	}

	// check_bad_kind.json has no wire equivalent by construction: the
	// frame's 2-bit kind field cannot carry HTTP's arbitrary kind
	// strings, so an unknown kind fails at the client encoder and
	// never crosses the wire. The nearest expressible probe — the one
	// unused 2-bit pattern — travels and is rejected per-decision by
	// the same evaluator path.
	if _, err := EncodeCheck(nil, 1, []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: 4}}); err == nil {
		t.Error("unknown access kind was encodable")
	}
	badKind, err := c.Check(service.Query{Op: service.OpAccess, Ring: 4, Segment: "data", Kind: 3})
	if err != nil {
		t.Fatalf("kind-3 probe: %v", err)
	}
	if badKind[0].Err != "invalid access kind 3" || badKind[0].Shard != -1 {
		t.Errorf("kind-3 probe decision = %+v", badKind[0])
	}

	// check_queue_full.json <-> the shed error frame's message
	// (TestSessionBackpressureShed drives a live shed and asserts
	// code 429 with exactly this string).
	readGolden(t, "check_queue_full.json", &fixtureErr)
	if service.ErrQueueFull.Error() != fixtureErr.Error {
		t.Errorf("shed message %q, fixture %q", service.ErrQueueFull.Error(), fixtureErr.Error)
	}

	// mutate_ok.json <-> the same setbrackets mutation on the wire.
	var mutOK struct {
		OK      bool   `json:"ok"`
		Version uint64 `json:"version"`
	}
	readGolden(t, "mutate_ok.json", &mutOK)
	ver, err := c.Mutate(Mutation{Op: MutSetBrackets, Segment: "data", Read: true, Write: true,
		Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if !mutOK.OK || ver != mutOK.Version {
		t.Errorf("wire mutate version %d, mutate_ok.json says %d", ver, mutOK.Version)
	}

	// check_after_mutate.json <-> the post-mutation decision,
	// including the advanced version interval.
	var afterMut tenant.CheckResponse
	readGolden(t, "check_after_mutate.json", &afterMut)
	after, err := c.Check(service.Query{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3})
	if err != nil {
		t.Fatalf("check after mutate: %v", err)
	}
	if !reflect.DeepEqual(after, afterMut.Decisions) {
		t.Errorf("post-mutation wire decision diverges:\n got %+v\nwant %+v", after, afterMut.Decisions)
	}

	// mutate_unknown_segment.json <-> 404-coded error frame with the
	// identical message.
	readGolden(t, "mutate_unknown_segment.json", &fixtureErr)
	_, err = c.Mutate(Mutation{Op: MutRevoke, Segment: "nonesuch"})
	if !errors.As(err, &ef) || ef.Code != CodeNotFound || ef.Msg != fixtureErr.Error {
		t.Errorf("unknown segment on wire = %v, HTTP fixture says 404 %q", err, fixtureErr.Error)
	}
}

// httpCheck submits queries through the multi-tenant HTTP handler and
// returns the decisions.
func httpCheck(t *testing.T, url string, queries []service.Query) []service.Decision {
	t.Helper()
	body := tenant.AppendCheckRequest(nil, queries)
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("http check: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("http check status %d", resp.StatusCode)
	}
	var out tenant.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode check response: %v", err)
	}
	return out.Decisions
}

// scriptMutation is one step of the deterministic mutation script the
// randomized differential applies to the "data" segment.
type scriptMutation struct {
	read, write, execute bool
	brackets             core.Brackets
	gates                uint32
}

func makeScript(n int, rng *rand.Rand) []scriptMutation {
	script := make([]scriptMutation, n)
	for i := range script {
		rs := []core.Ring{core.Ring(rng.Intn(8)), core.Ring(rng.Intn(8)), core.Ring(rng.Intn(8))}
		sort.Slice(rs, func(a, b int) bool { return rs[a] < rs[b] })
		script[i] = scriptMutation{
			read:     rng.Intn(4) != 0,
			write:    rng.Intn(2) == 0,
			execute:  rng.Intn(4) == 0,
			brackets: core.Brackets{R1: rs[0], R2: rs[1], R3: rs[2]},
			gates:    uint32(rng.Intn(4)),
		}
	}
	return script
}

func (m scriptMutation) wire() Mutation {
	return Mutation{Op: MutSetBrackets, Segment: "data", Read: m.read, Write: m.write,
		Execute: m.execute, Brackets: m.brackets, Gates: m.gates}
}

// TestDifferentialRandomizedTrace is the live half of the transport
// oracle argument (the T12 replay argument, lifted onto the wire):
// concurrent wire checkers race a mutator that alternates transports
// per step; every recorded decision must replay identically against a
// single-worker oracle advanced to the store version the decision
// reported. Run under -race in CI.
func TestDifferentialRandomizedTrace(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 4})
	_, addr := startWireServer(t, reg, Config{})
	hts := httptest.NewServer(tenant.NewHandler(reg, tenant.HandlerOptions{}))
	defer hts.Close()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	script := makeScript(64, rand.New(rand.NewSource(17)))

	type record struct {
		q service.Query
		d service.Decision
	}
	const checkers = 4
	var (
		recmu   sync.Mutex
		records []record
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for g := 0; g < checkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			dst := make([]service.Decision, 4)
			for {
				select {
				case <-done:
					return
				default:
				}
				queries := make([]service.Query, 1+rng.Intn(4))
				for i := range queries {
					q := service.Query{
						Op:     service.OpAccess,
						Ring:   core.Ring(rng.Intn(8)),
						Wordno: uint32(rng.Intn(16)),
						Kind:   core.AccessKind(rng.Intn(3)),
					}
					// Mutations target only "data" (segno 0); name-form
					// and segno-form must behave identically.
					if rng.Intn(2) == 0 {
						q.Segment = "data"
					}
					queries[i] = q
				}
				if err := c.CheckInto(queries, dst); err != nil {
					select {
					case <-done:
						return
					default:
						t.Errorf("checker %d: %v", g, err)
						return
					}
				}
				recmu.Lock()
				for i := range queries {
					d := dst[i]
					if d.VersionLo != d.VersionHi || d.VersionLo%2 != 0 {
						t.Errorf("torn snapshot interval [%d,%d] for %+v", d.VersionLo, d.VersionHi, queries[i])
					}
					records = append(records, record{queries[i], d})
				}
				recmu.Unlock()
			}
		}(g)
	}

	// The mutator: each script step travels over a different transport
	// than the one before it — the point being that transport choice
	// must not be observable in any decision.
	for k, m := range script {
		if k%2 == 0 {
			if _, err := c.Mutate(m.wire()); err != nil {
				t.Fatalf("wire mutation %d: %v", k, err)
			}
		} else {
			body, _ := json.Marshal(map[string]interface{}{
				"op": "setbrackets", "segment": "data",
				"read": m.read, "write": m.write, "execute": m.execute,
				"r1": m.brackets.R1, "r2": m.brackets.R2, "r3": m.brackets.R3,
				"gates": m.gates,
			})
			resp, err := http.Post(hts.URL+"/v1/mutate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("http mutation %d: %v", k, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("http mutation %d: status %d", k, resp.StatusCode)
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay every recorded decision against a fresh single-worker
	// oracle advanced through the same script prefix the decision's
	// version interval certifies.
	oreg := tenant.NewRegistry(tenant.Config{})
	otn, err := oreg.Load("oracle", testSegments(), tenant.TenantConfig{Workers: 1})
	if err != nil {
		t.Fatalf("load oracle: %v", err)
	}
	defer oreg.Close()
	ost := otn.Store()

	sort.SliceStable(records, func(i, j int) bool { return records[i].d.VersionLo < records[j].d.VersionLo })
	applied := 0
	var dataRecords int
	for _, rec := range records {
		k := int(rec.d.VersionLo / 2)
		if k > len(script) {
			t.Fatalf("decision reports version %d beyond the %d-step script", rec.d.VersionLo, len(script))
		}
		for applied < k {
			m := script[applied]
			if err := ost.SetBrackets(0, m.read, m.write, m.execute, m.brackets, m.gates); err != nil {
				t.Fatalf("oracle mutation %d: %v", applied, err)
			}
			applied++
		}
		want, err := otn.Submit(context.Background(), []service.Query{rec.q})
		if err != nil {
			t.Fatalf("oracle submit: %v", err)
		}
		g, w := rec.d, want[0]
		g.Worker, w.Worker = 0, 0
		if g != w {
			t.Fatalf("decision diverges from oracle at version %d:\nquery %+v\n live %+v\nwant %+v",
				rec.d.VersionLo, rec.q, g, w)
		}
		dataRecords++
	}
	if dataRecords < 100 {
		t.Errorf("only %d decisions recorded; the race window never opened", dataRecords)
	}
	t.Logf("replayed %d decisions across %d mutations", dataRecords, len(script))

	// Quiesced cross-transport battery: the final store must answer a
	// fixed query set identically over HTTP and over the wire.
	battery := goldenQueries()
	for ring := 0; ring < 8; ring++ {
		for segno := uint32(0); segno < 3; segno++ {
			for kind := 0; kind < 3; kind++ {
				battery = append(battery, service.Query{Op: service.OpAccess,
					Ring: core.Ring(ring), Segno: segno, Wordno: 1, Kind: core.AccessKind(kind)})
			}
		}
		battery = append(battery,
			service.Query{Op: service.OpCall, Ring: core.Ring(ring), Segment: "code", Wordno: 1},
			service.Query{Op: service.OpReturn, Ring: core.Ring(ring), Segment: "data", EffRing: ringp(core.Ring(ring))},
		)
	}
	wireDs, err := c.Check(battery...)
	if err != nil {
		t.Fatalf("wire battery: %v", err)
	}
	httpDs := httpCheck(t, hts.URL, battery)
	if len(httpDs) != len(battery) {
		t.Fatalf("http battery answered %d of %d", len(httpDs), len(battery))
	}
	gotW, gotH := stripWorker(wireDs), stripWorker(httpDs)
	for i := range battery {
		if gotW[i] != gotH[i] {
			t.Errorf("battery %d (%+v):\n wire %+v\n http %+v", i, battery[i], gotW[i], gotH[i])
		}
	}
}

// TestMutationRejectionParity sends every class of refused mutation
// through POST /v1/t/{name}/mutate and a wire Mutate frame, and checks
// that both transports answer with the same code (the wire codes are
// the HTTP statuses) and the same message. Both reach Store.Apply
// behind Tenant.Mutable.
//
// A gate count above seg.MaxGate does not fit the SDW gate field the
// Mutate frame carries, so the wire client refuses to encode it
// (ErrNotEncodable) and no frame is sent; over HTTP the store refuses
// it.
func TestMutationRejectionParity(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	if _, err := reg.Load("frozen", testSegments(), tenant.TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("load frozen: %v", err)
	}
	if err := reg.Seal("frozen"); err != nil {
		t.Fatalf("seal: %v", err)
	}
	// A segment long enough that only the gate field's width bounds
	// its gate count.
	wide := []service.Segment{{Name: "s", Size: seg.MaxBound, Execute: true,
		Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: seg.MaxGate}}
	if _, err := reg.Load("wide", wide, tenant.TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("load wide: %v", err)
	}
	hs := httptest.NewServer(tenant.NewHandler(reg, tenant.HandlerOptions{}))
	t.Cleanup(hs.Close)
	_, addr := startWireServer(t, reg, Config{})

	cases := []struct {
		name   string
		tenant string
		json   string
		m      Mutation
		code   uint16
		msg    string
		// wireRefuses marks a mutation the Mutate frame cannot carry.
		wireRefuses bool
	}{
		{"unknown segment", tenant.DefaultTenant,
			`{"op": "revoke", "segment": "nonesuch"}`,
			Mutation{Op: MutRevoke, Segment: "nonesuch"},
			CodeNotFound, `unknown segment "nonesuch"`, false},
		{"inverted brackets", tenant.DefaultTenant,
			`{"op": "setbrackets", "segment": "data", "read": true, "r1": 4, "r2": 2, "r3": 1}`,
			Mutation{Op: MutSetBrackets, Segment: "data", Read: true, Brackets: core.Brackets{R1: 4, R2: 2, R3: 1}},
			CodeBadRequest, "core: brackets violate R1 ≤ R2 ≤ R3: 4,2,1", false},
		{"gates beyond seg.MaxGate", "wide",
			fmt.Sprintf(`{"op": "setbrackets", "segment": "s", "execute": true, "r1": 1, "r2": 3, "r3": 5, "gates": %d}`, seg.MaxGate+1),
			Mutation{Op: MutSetBrackets, Segment: "s", Execute: true, Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: seg.MaxGate + 1},
			CodeBadRequest, fmt.Sprintf("seg: gate count %d exceeds %d", seg.MaxGate+1, seg.MaxGate), true},
		{"segno beyond the descriptor segment", tenant.DefaultTenant,
			`{"op": "revoke", "segno": 256}`,
			Mutation{Op: MutRevoke, Segno: service.MaxSegments},
			CodeBadRequest, "service: segment number 256 beyond the descriptor segment", false},
		{"segno the image never defined", tenant.DefaultTenant,
			`{"op": "restore", "segno": 100}`,
			Mutation{Op: MutRestore, Segno: 100},
			CodeNotFound, "unknown segment 100", false},
		{"sealed tenant", "frozen",
			`{"op": "revoke", "segment": "data"}`,
			Mutation{Op: MutRevoke, Segment: "data"},
			CodeConflict, tenant.ErrSealed.Error(), false},
	}
	for _, c := range cases {
		resp, err := http.Post(hs.URL+"/v1/t/"+c.tenant+"/mutate", "application/json", strings.NewReader(c.json))
		if err != nil {
			t.Fatalf("%s: POST: %v", c.name, err)
		}
		var er tenant.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode HTTP answer: %v", c.name, err)
		}
		if resp.StatusCode != int(c.code) || er.Error != c.msg {
			t.Errorf("%s: HTTP %d %q, want %d %q", c.name, resp.StatusCode, er.Error, c.code, c.msg)
		}

		cl, err := Dial(addr, ClientConfig{Tenant: c.tenant})
		if err != nil {
			t.Fatalf("%s: dial: %v", c.name, err)
		}
		_, err = cl.Mutate(c.m)
		cl.Close()
		var ef *ErrFrame
		switch {
		case c.wireRefuses:
			if !errors.Is(err, ErrNotEncodable) {
				t.Errorf("%s: wire = %v, want ErrNotEncodable", c.name, err)
			}
		case !errors.As(err, &ef) || ef.Code != c.code || ef.Msg != c.msg:
			t.Errorf("%s: wire = %v, want code %d %q", c.name, err, c.code, c.msg)
		}
	}

}
