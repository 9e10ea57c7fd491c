package tenant

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// codecStrings are the string values the random batches draw from:
// names the codec copies as is, and strings encoding/json escapes or
// the parsers refuse.
var codecStrings = []string{
	"", "data", "code", "user_data", "access", "call", "effring", "read", "fetch",
	"outside read bracket", "downward call", "unknown segment",
	`"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "\b", "\f", "\n", "\t",
	" ", " ", "\xff", "a\xc3", "é", "日本", "</script>", `a"b\c`,
}

func randString(r *rand.Rand) string {
	s := codecStrings[r.Intn(len(codecStrings))]
	if r.Intn(4) == 0 {
		s += codecStrings[r.Intn(len(codecStrings))]
	}
	return s
}

// randUint32 favours zero (an omitted field) and the range's ends.
func randUint32(r *rand.Rand) uint32 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint32
	}
	return uint32(r.Intn(1000))
}

func randQuery(r *rand.Rand) service.Query {
	ops := []service.Op{service.OpAccess, service.OpCall, service.OpReturn, service.OpEffRing}
	q := service.Query{Op: ops[r.Intn(len(ops))], Ring: core.Ring(r.Intn(256)), Segno: randUint32(r),
		Wordno: randUint32(r), Kind: core.AccessKind(r.Intn(4)), SameSegment: r.Intn(2) == 0}
	if r.Intn(8) == 0 {
		q.Op = service.Op(randString(r))
	}
	if r.Intn(2) == 0 {
		q.Segment = randString(r)
	}
	if r.Intn(3) == 0 {
		eff := core.Ring(r.Intn(256))
		q.EffRing = &eff
	}
	switch r.Intn(3) {
	case 0:
		q.Chain = []service.ChainStep{}
	case 1:
		for n := 1 + r.Intn(3); n > 0; n-- {
			q.Chain = append(q.Chain, service.ChainStep{PR: r.Intn(2) == 0, Ring: core.Ring(r.Intn(256)), Segno: randUint32(r)})
		}
	}
	return q
}

// validKinds reports whether every access query in queries has a
// valid kind.
func validKinds(queries []service.Query) bool {
	for _, q := range queries {
		if q.Op == service.OpAccess && (q.Kind < core.AccessRead || q.Kind > core.AccessExecute) {
			return false
		}
	}
	return true
}

func randDecision(r *rand.Rand) service.Decision {
	d := service.Decision{Allowed: r.Intn(2) == 0, Trapped: r.Intn(3) == 0, NewRing: core.Ring(r.Intn(256)),
		ViolationKind: core.ViolationKind(r.Intn(core.ViolationKindCount+2) - 1),
		VersionLo:     r.Uint64() >> uint(r.Intn(65)), VersionHi: r.Uint64() >> uint(r.Intn(65)),
		Shard: r.Intn(10) - 1, Worker: r.Intn(70000) - 1}
	if r.Intn(2) == 0 {
		d.Violation = d.ViolationKind.String()
	}
	if r.Intn(4) == 0 {
		d.Violation = randString(r)
	}
	if r.Intn(3) == 0 {
		d.Outcome = core.CallOutcome(r.Intn(3)).String()
	}
	if r.Intn(4) == 0 {
		d.Err = randString(r)
	}
	if r.Intn(8) == 0 {
		d.Shard, d.Worker = math.MinInt, math.MaxInt
	}
	return d
}

// NewCheckRequest is the reference form of a request: the schema
// struct AppendCheckRequest must encode exactly as json.Marshal does.
// An access query's kind is written by name; an invalid kind keeps its
// invalid name ("AccessKind(3)"), which the server refuses rather than
// reading as the default.
func NewCheckRequest(queries []service.Query) CheckRequest {
	req := CheckRequest{Queries: make([]CheckQuery, len(queries))}
	for i, q := range queries {
		cq := CheckQuery{Op: string(q.Op), Ring: uint8(q.Ring), Segment: q.Segment, Segno: q.Segno,
			Wordno: q.Wordno, SameSegment: q.SameSegment, Chain: q.Chain}
		if q.Op == service.OpAccess {
			cq.Kind = q.Kind.String()
		}
		if q.EffRing != nil {
			r := uint8(*q.EffRing)
			cq.EffRing = &r
		}
		req.Queries[i] = cq
	}
	return req
}

// writeJSONBytes is what writeJSON writes for v.
func writeJSONBytes(v interface{}) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, v)
	return rec.Body.Bytes()
}

// checkRequestParse checks that a body the request parser accepts
// decodes to the same CheckRequest under encoding/json.
func checkRequestParse(t *testing.T, body []byte) {
	t.Helper()
	var p requestParser
	cqs, ok := p.parse(body, math.MaxInt)
	if !ok {
		return
	}
	var want CheckRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("parser accepted %q, which encoding/json refuses: %v", body, err)
	}
	if got := (CheckRequest{Queries: cqs}); !reflect.DeepEqual(got, want) {
		t.Fatalf("parse(%q) =\n %+v\nencoding/json:\n %+v", body, got, want)
	}
}

// checkResponseParse is checkRequestParse for responses.
func checkResponseParse(t *testing.T, body []byte) {
	t.Helper()
	dst := make([]service.Decision, 64)
	n, ok := ParseCheckResponse(body, dst)
	if !ok {
		return
	}
	var want CheckResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("parser accepted %q, which encoding/json refuses: %v", body, err)
	}
	if got := (CheckResponse{Decisions: dst[:n]}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseCheckResponse(%q) =\n %+v\nencoding/json:\n %+v", body, got, want)
	}
}

// TestCheckCodecDifferential checks the codec against encoding/json
// over seeded random batches: the encoders byte for byte, and the
// parsers on the encoders' output, which they must accept whenever no
// string needs an escape.
func TestCheckCodecDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	accepted := [2]int{}
	for i := 0; i < 2000; i++ {
		queries := make([]service.Query, r.Intn(5))
		for j := range queries {
			queries[j] = randQuery(r)
		}
		want, err := json.Marshal(NewCheckRequest(queries))
		if err != nil {
			t.Fatal(err)
		}
		got := AppendCheckRequest([]byte("prefix"), queries)
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendCheckRequest(%+v) =\n%s\njson.Marshal:\n%s", queries, got, want)
		}
		checkRequestParse(t, want)
		if _, ok := new(requestParser).parse(want, math.MaxInt); ok {
			accepted[0]++
			if validKinds(queries) && len(want) > CheckRequestCap(queries) {
				t.Fatalf("CheckRequestCap(%+v) = %d, the encoding is %d bytes", queries, CheckRequestCap(queries), len(want))
			}
		}

		var decisions []service.Decision
		switch r.Intn(8) {
		case 0:
		case 1:
			decisions = []service.Decision{}
		default:
			decisions = make([]service.Decision, 1+r.Intn(4))
			for j := range decisions {
				decisions[j] = randDecision(r)
			}
		}
		want = writeJSONBytes(CheckResponse{Decisions: decisions})
		if got := AppendCheckResponse(nil, decisions); !bytes.Equal(got, want) {
			t.Fatalf("AppendCheckResponse(%+v) =\n%s\nwriteJSON:\n%s", decisions, got, want)
		}
		checkResponseParse(t, want)
		if _, ok := ParseCheckResponse(want, make([]service.Decision, 8)); ok {
			accepted[1]++
		}
	}
	// Most random batches hold no string that needs an escape, so
	// the parsers must have taken most of them.
	if accepted[0] < 100 || accepted[1] < 100 {
		t.Errorf("parsers accepted %d requests and %d responses of 2000", accepted[0], accepted[1])
	}
}

// TestCheckCodecRefusals pins inputs outside the subset that
// encoding/json accepts: each must be refused, so the handler hands it
// to encoding/json.
func TestCheckCodecRefusals(t *testing.T) {
	for _, body := range []string{
		`{"QUERIES":[{"op":"access","ring":1}]}`,
		`{"queries":[{"Op":"access","ring":1}]}`,
		`{"queries":[{"op":"access","op":"call","ring":1}]}`,
		`{"queries":[{"op":"access","ring":1,"color":"red"}]}`,
		`{"queries":null}`,
		`{"queries":[null]}`,
		`{"queries":[{"op":null,"ring":1}]}`,
		`{"queries":[{"op":"access","ring":1e0}]}`,
		`{"queries":[{"op":"access","ring":01}]}`,
		`{"queries":[{"op":"access","ring":1.0}]}`,
		`{"queries":[{"op":"access","ring":256}]}`,
		`{"queries":[{"op":"access","ring":-1}]}`,
		`{"queries":[{"op":"access","segno":4294967296}]}`,
		`{"queries":[{"op":"acc\u0065ss","ring":1}]}`,
		`{"queries":[{"op":"accéss","ring":1}]}`,
		`{"queries":[{"op":"effring","ring":1,"chain":[]}]}`,
		`{"queries":[{"op":"access","ring":1}]} x`,
		`{"queries":[{"op":"access","ring":1}],}`,
		`{"queries":[{"op":"access","ring":1},]}`,
		`{}`,
		``,
	} {
		if _, ok := new(requestParser).parse([]byte(body), math.MaxInt); ok {
			t.Errorf("request parser accepted %s", body)
		}
	}
	for _, body := range []string{
		`{"Decisions":[]}`,
		`{"decisions":[{"allowed":true,"allowed":false}]}`,
		`{"decisions":[{"allowed":1}]}`,
		`{"decisions":[{"new_ring":256}]}`,
		`{"decisions":[{"shard":-01}]}`,
		`{"decisions":[{"shard":- 1}]}`,
		`{"decisions":[{"version_lo":18446744073709551616}]}`,
		`{"decisions":[{"worker":9223372036854775808}]}`,
		`{"decisions":[{"err":"a\"b"}]}`,
		`{"decisions":null}`,
		`{"decisions":[]}{}`,
	} {
		if _, ok := ParseCheckResponse([]byte(body), make([]service.Decision, 4)); ok {
			t.Errorf("response parser accepted %s", body)
		}
	}
	if _, ok := new(requestParser).parse([]byte(`{"queries":[{"op":"access"},{"op":"access"}]}`), 1); ok {
		t.Error("request parser accepted more queries than its bound")
	}
	if _, ok := ParseCheckResponse([]byte(`{"decisions":[{"allowed":true},{"allowed":true}]}`), make([]service.Decision, 1)); ok {
		t.Error("response parser accepted more decisions than dst holds")
	}
}

// codecSeeds are the fuzz seeds: every golden fixture, the golden
// requests, and the edges of the subset.
func codecSeeds(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("golden fixtures: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"queries": [
  {"op": "access", "ring": 4, "segment": "data", "wordno": 3, "kind": "read"},
  {"op": "return", "ring": 2, "segment": "code", "eff_ring": 3},
  {"op": "effring", "ring": 2, "chain": [{"pr": true, "ring": 3}]}
]}`,
		`{"queries":[{"op":"access","ring":1,"segment":"data","kind":"sniff"}]}`,
		`{"queries":[{"OP":"access","Ring":1}]}`,
		`{"queries":[{"op":"access","op":"call"}]}`,
		`{"queries":null}`,
		`{"queries":[{"op":"access","ring":1e0}]}`,
		`{"queries":[{"op":"access","ring":01}]}`,
		`{"queries":[{"op":"access","ring":256}]}`,
		`{"queries":[{"op":"access","ring":1}]} trailing`,
		`{"decisions":[{"allowed":true,"violation_kind":-1,"shard":-1,"worker":0,"version_lo":18446744073709551615}]}`,
		`{"DECISIONS":[{"ALLOWED":true}]}`,
		`{"decisions":[{"new_ring":256}]}`,
		`{"decisions":[{"allowed":true}]}garbage`,
	} {
		f.Add([]byte(s))
	}
}

// FuzzCheckRequestJSON checks that every request body the parser
// accepts decodes identically under encoding/json.
func FuzzCheckRequestJSON(f *testing.F) {
	codecSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkRequestParse(t, body) })
}

// FuzzCheckResponseJSON checks that every response body the parser
// accepts decodes identically under encoding/json.
func FuzzCheckResponseJSON(f *testing.F) {
	codecSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkResponseParse(t, body) })
}

// TestCheckCodecZeroAlloc gates the codec: into warmed buffers, a
// batch of access queries and its decisions encode and parse with no
// allocation.
func TestCheckCodecZeroAlloc(t *testing.T) {
	queries := []service.Query{
		{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 5, Segment: "secret", Kind: core.AccessWrite},
		{Op: service.OpAccess, Ring: 1, Segno: 2, Wordno: 7, Kind: core.AccessExecute},
	}
	decisions := []service.Decision{
		{Allowed: true, VersionLo: 2, VersionHi: 2, Shard: 0, Worker: 1},
		{Violation: core.ViolationReadBracket.String(), ViolationKind: core.ViolationReadBracket, VersionLo: 4, VersionHi: 4, Shard: 2},
		{Violation: core.ViolationNoExecute.String(), ViolationKind: core.ViolationNoExecute, Shard: -1},
	}
	var p requestParser
	req := AppendCheckRequest(nil, queries)
	resp := AppendCheckResponse(nil, decisions)
	dst := make([]service.Decision, len(decisions))
	if _, ok := p.parse(req, len(queries)); !ok {
		t.Fatalf("request parser refused %s", req)
	}
	allocs := testing.AllocsPerRun(200, func() {
		req = AppendCheckRequest(req[:0], queries)
		if _, ok := p.parse(req, len(queries)); !ok {
			t.Fatalf("request parser refused %s", req)
		}
		resp = AppendCheckResponse(resp[:0], decisions)
		if n, ok := ParseCheckResponse(resp, dst); !ok || n != len(decisions) {
			t.Fatalf("response parser: %d, %v", n, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("the /v1/check codec allocates %.2f objects per batch; its budget is 0", allocs)
	}
	if !reflect.DeepEqual(dst, decisions) {
		t.Errorf("decisions round trip to %+v, want %+v", dst, decisions)
	}
}

// BenchmarkCheckCodec times each half of the /v1/check codec on one
// 16-query batch, the http-json workload's batch size: the client's
// request encoding, the server's request parse, the server's response
// encoding and the client's response parse.
func BenchmarkCheckCodec(b *testing.B) {
	queries := make([]service.Query, 16)
	decisions := make([]service.Decision, len(queries))
	for i := range queries {
		queries[i] = service.Query{Op: service.OpAccess, Ring: 4, Segno: uint32(i % 8), Wordno: uint32(37 * i), Kind: core.AccessKind(i % 3)}
		decisions[i] = service.Decision{Allowed: true, VersionLo: 6, VersionHi: 6, Shard: i % 8, Worker: 1}
		if i%4 == 3 {
			kind := core.ViolationWriteBracket
			decisions[i] = service.Decision{Violation: kind.String(), ViolationKind: kind, VersionLo: 6, VersionHi: 6, Shard: i % 8}
		}
	}
	req := AppendCheckRequest(nil, queries)
	resp := AppendCheckResponse(nil, decisions)
	dst := make([]service.Decision, len(decisions))
	var p requestParser
	b.Run("append-request", func(b *testing.B) {
		b.SetBytes(int64(len(req)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req = AppendCheckRequest(req[:0], queries)
		}
	})
	b.Run("parse-request", func(b *testing.B) {
		b.SetBytes(int64(len(req)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := p.parse(req, len(queries)); !ok {
				b.Fatalf("request parser refused %s", req)
			}
		}
	})
	b.Run("append-response", func(b *testing.B) {
		b.SetBytes(int64(len(resp)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp = AppendCheckResponse(resp[:0], decisions)
		}
	})
	b.Run("parse-response", func(b *testing.B) {
		b.SetBytes(int64(len(resp)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n, ok := ParseCheckResponse(resp, dst); !ok || n != len(decisions) {
				b.Fatalf("response parser: %d, %v", n, ok)
			}
		}
	})
}
