package tenant

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/service"
)

// The /v1/check codec. The schema types in api.go define the two
// messages; these functions write and read them without reflection.
//
// The encoders produce exactly the bytes encoding/json produces for the
// schema types: AppendCheckRequest what json.Marshal writes for a
// CheckRequest, AppendCheckResponse what writeJSON writes for a
// CheckResponse. A string that needs escaping is handed to
// encoding/json itself.
//
// The parsers accept a strict subset of JSON and report not-ok for
// anything outside it: keys exactly as tagged, no duplicate or unknown
// keys, no null, strings of printable ASCII with no escapes, integers
// without sign (except the int fields), fraction, exponent or leading
// zero and within the field's range, no empty chain, and nothing but
// whitespace after the top-level value. On that subset encoding/json
// decodes the same values, so a caller that falls back to
// encoding/json on not-ok keeps its exact behaviour for every input.
// TestCheckCodecDifferential and the fuzz targets check both halves.

// AppendCheckRequest appends the body of POST /v1/check for queries to
// b: the bytes json.Marshal(NewCheckRequest(queries)) returns.
//
//ring:hotpath
func AppendCheckRequest(b []byte, queries []service.Query) []byte {
	b = appendRaw(b, `{"queries":[`)
	for i := range queries {
		if i > 0 {
			b = appendRaw(b, ",")
		}
		b = appendQuery(b, &queries[i])
	}
	return appendRaw(b, "]}")
}

// CheckRequestCap is a capacity AppendCheckRequest(nil, queries) never
// outgrows when no string in queries needs an escape and every access
// kind is valid: the envelope, and for each query its longest fixed
// fields, its op and segment name, and its chain steps at their
// longest.
func CheckRequestCap(queries []service.Query) int {
	const (
		envelope  = len(`{"queries":[]}`)
		query     = len(`,{"op":"","ring":255,"segment":"","segno":4294967295,"wordno":4294967295,"kind":"execute","eff_ring":255,"same_segment":true,"chain":[]}`)
		chainStep = len(`,{"pr":true,"ring":255,"segno":4294967295}`)
	)
	n := envelope
	for i := range queries {
		q := &queries[i]
		n += query + len(q.Op) + len(q.Segment) + chainStep*len(q.Chain)
	}
	return n
}

//ring:hotpath
func appendQuery(b []byte, q *service.Query) []byte {
	b = appendRaw(b, `{"op":`)
	b = appendString(b, string(q.Op))
	b = appendRaw(b, `,"ring":`)
	b = strconv.AppendUint(b, uint64(q.Ring), 10)
	if q.Segment != "" {
		b = appendRaw(b, `,"segment":`)
		b = appendString(b, q.Segment)
	}
	if q.Segno != 0 {
		b = appendRaw(b, `,"segno":`)
		b = strconv.AppendUint(b, uint64(q.Segno), 10)
	}
	if q.Wordno != 0 {
		b = appendRaw(b, `,"wordno":`)
		b = strconv.AppendUint(b, uint64(q.Wordno), 10)
	}
	if q.Op == service.OpAccess {
		b = appendRaw(b, `,"kind":`)
		b = appendString(b, kindName(q.Kind))
	}
	if q.EffRing != nil {
		b = appendRaw(b, `,"eff_ring":`)
		b = strconv.AppendUint(b, uint64(*q.EffRing), 10)
	}
	if q.SameSegment {
		b = appendRaw(b, `,"same_segment":true`)
	}
	if len(q.Chain) > 0 {
		b = appendRaw(b, `,"chain":[`)
		for i, st := range q.Chain {
			if i > 0 {
				b = appendRaw(b, ",")
			}
			b = appendRaw(b, "{")
			if st.PR {
				b = appendRaw(b, `"pr":true,`)
			}
			b = appendRaw(b, `"ring":`)
			b = strconv.AppendUint(b, uint64(st.Ring), 10)
			if st.Segno != 0 {
				b = appendRaw(b, `,"segno":`)
				b = strconv.AppendUint(b, uint64(st.Segno), 10)
			}
			b = appendRaw(b, "}")
		}
		b = appendRaw(b, "]")
	}
	return appendRaw(b, "}")
}

// kindName is core.AccessKind.String without the formatting for the
// valid kinds.
//
//ring:hotpath
func kindName(k core.AccessKind) string {
	switch k {
	case core.AccessRead:
		return "read"
	case core.AccessWrite:
		return "write"
	case core.AccessExecute:
		return "execute"
	}
	return k.String() //ring:allow fallback: an invalid kind keeps its formatted name, which the server refuses
}

// AppendCheckResponse appends the body of a successful POST /v1/check
// answering with decisions to b: the bytes writeJSON writes for
// CheckResponse{Decisions: decisions}.
//
//ring:hotpath
func AppendCheckResponse(b []byte, decisions []service.Decision) []byte {
	switch {
	case decisions == nil:
		return appendRaw(b, "{\n  \"decisions\": null\n}\n")
	case len(decisions) == 0:
		return appendRaw(b, "{\n  \"decisions\": []\n}\n")
	}
	b = appendRaw(b, "{\n  \"decisions\": [\n")
	for i := range decisions {
		if i > 0 {
			b = appendRaw(b, ",\n")
		}
		b = appendDecision(b, &decisions[i])
	}
	return appendRaw(b, "\n  ]\n}\n")
}

//ring:hotpath
func appendDecision(b []byte, d *service.Decision) []byte {
	const field = ",\n      \""
	b = appendRaw(b, "    {\n      \"allowed\": ")
	b = strconv.AppendBool(b, d.Allowed)
	if d.Violation != "" {
		b = appendRaw(b, field+`violation": `)
		b = appendString(b, d.Violation)
	}
	if d.ViolationKind != 0 {
		b = appendRaw(b, field+`violation_kind": `)
		b = strconv.AppendInt(b, int64(d.ViolationKind), 10)
	}
	if d.Outcome != "" {
		b = appendRaw(b, field+`outcome": `)
		b = appendString(b, d.Outcome)
	}
	if d.NewRing != 0 {
		b = appendRaw(b, field+`new_ring": `)
		b = strconv.AppendUint(b, uint64(d.NewRing), 10)
	}
	if d.Trapped {
		b = appendRaw(b, field+`trapped": true`)
	}
	if d.Err != "" {
		b = appendRaw(b, field+`err": `)
		b = appendString(b, d.Err)
	}
	b = appendRaw(b, field+`version_lo": `)
	b = strconv.AppendUint(b, d.VersionLo, 10)
	b = appendRaw(b, field+`version_hi": `)
	b = strconv.AppendUint(b, d.VersionHi, 10)
	b = appendRaw(b, field+`shard": `)
	b = strconv.AppendInt(b, int64(d.Shard), 10)
	b = appendRaw(b, field+`worker": `)
	b = strconv.AppendInt(b, int64(d.Worker), 10)
	return appendRaw(b, "\n    }")
}

// appendRaw is append(b, s...) with its growth branch spelled out: a
// warmed buffer never takes it.
//
//ring:hotpath
func appendRaw(b []byte, s string) []byte {
	n := len(b)
	if cap(b)-n < len(s) {
		return append(b, s...) //ring:allow fallback: a cold buffer grows once; warmed buffers have the room
	}
	b = b[:n+len(s)]
	copy(b[n:], s)
	return b
}

// appendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes is copied as is; any other
// string is encoded by encoding/json.
//
//ring:hotpath
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) //ring:allow escape branch: encoding/json writes its own escapes
			return append(b, q...)  //ring:allow escape branch: encoding/json writes its own escapes
		}
	}
	b = appendRaw(b, `"`)
	b = appendRaw(b, s)
	return appendRaw(b, `"`)
}

// Keys of the parsed objects, in the order of their fields; a key's
// index is its bit in the parser's seen-set.
var (
	requestKeys  = [...]string{"queries"}
	responseKeys = [...]string{"decisions"}
	queryKeys    = [...]string{"op", "ring", "segment", "segno", "wordno", "kind", "eff_ring", "same_segment", "chain"}
	stepKeys     = [...]string{"pr", "ring", "segno"}
	decisionKeys = [...]string{"allowed", "violation", "violation_kind", "outcome", "new_ring", "trapped", "err",
		"version_lo", "version_hi", "shard", "worker"}
)

// requestParser decodes request bodies into slices it keeps from one
// request to the next. Its results alias those slices, so they are
// valid until the next parse.
type requestParser struct {
	cqs   []CheckQuery
	effs  []uint8             // eff_ring values; CheckQuery.EffRing points here
	chain []service.ChainStep // every query's chain, back to back
	names nameTable           // segment names seen
}

// parse decodes body as a CheckRequest of at most max queries. ok is
// false for anything outside the codec's subset, and for more than max
// queries.
//
//ring:hotpath
func (p *requestParser) parse(body []byte, max int) (queries []CheckQuery, ok bool) {
	p.cqs, p.effs, p.chain = p.cqs[:0], p.effs[:0], p.chain[:0]
	s := scanner{b: body}
	var seen uint16
	if !s.eat('{') || !s.member(requestKeys[:], &seen) || !s.eat('[') {
		return nil, false
	}
	for n := 0; ; n++ {
		if done, ok := s.elem(n); !ok {
			return nil, false
		} else if done {
			break
		}
		if n == max {
			return nil, false
		}
		p.cqs = append(p.cqs, CheckQuery{}) //ring:allow fallback: a cold parser grows once; warmed ones have the room
		if !p.query(&s, &p.cqs[n]) {
			return nil, false
		}
	}
	if !s.end(&seen) || !s.done() {
		return nil, false
	}
	if p.cqs == nil {
		return noQueries, true // encoding/json decodes [] as empty, not nil
	}
	return p.cqs, true
}

var noQueries = make([]CheckQuery, 0)

//ring:hotpath
func (p *requestParser) query(s *scanner, cq *CheckQuery) bool {
	if !s.eat('{') {
		return false
	}
	var seen uint16
	for {
		k, done, ok := s.key(queryKeys[:], &seen)
		if !ok || done {
			return ok
		}
		var v uint64
		var name []byte
		switch k {
		case 0:
			if name, ok = s.str(); ok {
				cq.Op = p.intern(name)
			}
		case 1:
			v, ok = s.uint(math.MaxUint8)
			cq.Ring = uint8(v)
		case 2:
			if name, ok = s.str(); ok {
				cq.Segment = p.intern(name)
			}
		case 3:
			v, ok = s.uint(math.MaxUint32)
			cq.Segno = uint32(v)
		case 4:
			v, ok = s.uint(math.MaxUint32)
			cq.Wordno = uint32(v)
		case 5:
			if name, ok = s.str(); ok {
				cq.Kind = p.intern(name)
			}
		case 6:
			if v, ok = s.uint(math.MaxUint8); ok {
				p.effs = append(p.effs, uint8(v)) //ring:allow fallback: a cold parser grows once; warmed ones have the room
				cq.EffRing = &p.effs[len(p.effs)-1]
			}
		case 7:
			cq.SameSegment, ok = s.bool()
		case 8:
			cq.Chain, ok = p.steps(s)
		}
		if !ok {
			return false
		}
	}
}

// steps parses a non-empty chain into p.chain and returns its part.
//
//ring:hotpath
func (p *requestParser) steps(s *scanner) ([]service.ChainStep, bool) {
	if !s.eat('[') {
		return nil, false
	}
	start := len(p.chain)
	for n := 0; ; n++ {
		if done, ok := s.elem(n); !ok || done && n == 0 {
			return nil, false
		} else if done {
			break
		}
		if !s.eat('{') {
			return nil, false
		}
		var st service.ChainStep
		var seen uint16
		for {
			k, done, ok := s.key(stepKeys[:], &seen)
			if !ok {
				return nil, false
			}
			if done {
				break
			}
			var v uint64
			switch k {
			case 0:
				st.PR, ok = s.bool()
			case 1:
				v, ok = s.uint(math.MaxUint8)
				st.Ring = core.Ring(v)
			case 2:
				v, ok = s.uint(math.MaxUint32)
				st.Segno = uint32(v)
			}
			if !ok {
				return nil, false
			}
		}
		p.chain = append(p.chain, st) //ring:allow fallback: a cold parser grows once; warmed ones have the room
	}
	return p.chain[start:len(p.chain):len(p.chain)], true
}

// intern returns name as a string, from the protocol names or the
// parser's table of names seen.
//
//ring:hotpath
func (p *requestParser) intern(name []byte) string {
	if s, ok := protocolNames.find(name); ok {
		return s
	}
	return p.names.intern(name)
}

// ParseCheckResponse decodes body, a CheckResponse, straight into dst:
// n decisions were written. ok is false for anything outside the
// codec's subset and for more than len(dst) decisions; dst may then
// hold partial results. Violation and outcome names come from core's
// names without allocating.
//
//ring:hotpath
func ParseCheckResponse(body []byte, dst []service.Decision) (n int, ok bool) {
	s := scanner{b: body}
	var seen uint16
	if !s.eat('{') || !s.member(responseKeys[:], &seen) || !s.eat('[') {
		return 0, false
	}
	for ; ; n++ {
		if done, ok := s.elem(n); !ok {
			return n, false
		} else if done {
			break
		}
		if n == len(dst) {
			return n, false
		}
		dst[n] = service.Decision{}
		if !parseDecision(&s, &dst[n]) {
			return n, false
		}
	}
	return n, s.end(&seen) && s.done()
}

//ring:hotpath
func parseDecision(s *scanner, d *service.Decision) bool {
	if !s.eat('{') {
		return false
	}
	var seen uint16
	for {
		k, done, ok := s.key(decisionKeys[:], &seen)
		if !ok || done {
			return ok
		}
		var u uint64
		var i int64
		var name []byte
		switch k {
		case 0:
			d.Allowed, ok = s.bool()
		case 1:
			if name, ok = s.str(); ok {
				d.Violation = knownName(name)
			}
		case 2:
			i, ok = s.int()
			d.ViolationKind = core.ViolationKind(i)
		case 3:
			if name, ok = s.str(); ok {
				d.Outcome = knownName(name)
			}
		case 4:
			u, ok = s.uint(math.MaxUint8)
			d.NewRing = core.Ring(u)
		case 5:
			d.Trapped, ok = s.bool()
		case 6:
			if name, ok = s.str(); ok {
				d.Err = knownName(name)
			}
		case 7:
			d.VersionLo, ok = s.uint(math.MaxUint64)
		case 8:
			d.VersionHi, ok = s.uint(math.MaxUint64)
		case 9:
			i, ok = s.int()
			d.Shard = int(i)
		case 10:
			i, ok = s.int()
			d.Worker = int(i)
		}
		if !ok {
			return false
		}
	}
}

// knownName returns name as a string, without allocating when it is
// one of the protocol names.
//
//ring:hotpath
func knownName(name []byte) string {
	if s, ok := protocolNames.find(name); ok {
		return s
	}
	return string(name) //ring:allow fallback: a string no table holds (an error message) is copied
}

// scanner reads JSON text under the codec's subset rules.
type scanner struct {
	b []byte
	i int
}

// next skips whitespace and returns the byte at the cursor, or 0 at
// the end of the input.
//
//ring:hotpath
func (s *scanner) next() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c, after whitespace.
//
//ring:hotpath
func (s *scanner) eat(c byte) bool {
	if s.next() == c && s.i < len(s.b) {
		s.i++
		return true
	}
	return false
}

// done reports that only whitespace is left.
//
//ring:hotpath
func (s *scanner) done() bool {
	s.next()
	return s.i == len(s.b)
}

// key reads the next member key of an object whose '{' is consumed,
// and its ':'. It reports done at the closing '}'. A key not in keys,
// or already in seen, is not ok; seen gains the key's bit.
//
//ring:hotpath
func (s *scanner) key(keys []string, seen *uint16) (k int, done, ok bool) {
	if s.eat('}') {
		return 0, true, true
	}
	if *seen != 0 && !s.eat(',') {
		return 0, false, false
	}
	name, ok := s.str()
	if !ok || !s.eat(':') {
		return 0, false, false
	}
	for k := range keys {
		if equal(name, keys[k]) {
			if *seen&(1<<k) != 0 {
				return 0, false, false
			}
			*seen |= 1 << k
			return k, false, true
		}
	}
	return 0, false, false
}

// member reads the key of a one-key object's only member.
//
//ring:hotpath
func (s *scanner) member(keys []string, seen *uint16) bool {
	_, done, ok := s.key(keys, seen)
	return ok && !done
}

// end reads the closing '}' of an object with no member left unread.
//
//ring:hotpath
func (s *scanner) end(seen *uint16) bool {
	_, done, ok := s.key(nil, seen)
	return ok && done
}

// elem moves to element n of an array whose '[' is consumed, and
// reports done at the closing ']'.
//
//ring:hotpath
func (s *scanner) elem(n int) (done, ok bool) {
	if s.eat(']') {
		return true, true
	}
	return false, n == 0 || s.eat(',')
}

// str reads a string of printable ASCII with no escapes and returns
// its bytes.
//
//ring:hotpath
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20, c >= 0x80, c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// uint reads an unsigned integer no larger than max.
//
//ring:hotpath
func (s *scanner) uint(max uint64) (uint64, bool) {
	s.next()
	return s.digits(max)
}

// int reads an integer in the range of int.
//
//ring:hotpath
func (s *scanner) int() (int64, bool) {
	if s.next() != '-' {
		v, ok := s.digits(math.MaxInt)
		return int64(v), ok
	}
	s.i++
	v, ok := s.digits(-math.MinInt)
	return -int64(v), ok
}

// digits reads the digits of an integer no larger than max, with no
// leading zero and no fraction or exponent after it.
//
//ring:hotpath
func (s *scanner) digits(max uint64) (uint64, bool) {
	start := s.i
	var v uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	switch n := s.i - start; {
	case n == 0, n > 1 && s.b[start] == '0':
		return 0, false
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		return 0, false
	}
	return v, true
}

// bool reads true or false.
//
//ring:hotpath
func (s *scanner) bool() (v, ok bool) {
	switch s.next() {
	case 't':
		if ok = len(s.b)-s.i >= 4 && equal(s.b[s.i:s.i+4], "true"); ok {
			s.i += 4
		}
		return ok, ok
	case 'f':
		if ok = len(s.b)-s.i >= 5 && equal(s.b[s.i:s.i+5], "false"); ok {
			s.i += 5
		}
		return false, ok
	}
	return false, false
}

//ring:hotpath
func equal(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// nameSlots sizes a nameTable: a power of two, at least twice
// service.MaxSegments so a whole image's segment names fit.
const nameSlots = 2 * service.MaxSegments

// nameTable interns short strings by content, so a name parsed again
// is handed out without allocating. It is open-addressed with linear
// probing; when half full it starts over, so hostile names cannot grow
// it.
type nameTable struct {
	slots [nameSlots]string
	n     int
}

// protocolNames holds the names the decision path reads and writes:
// ops, access kinds, and core's violation and outcome names. It is
// filled once and only read after.
var protocolNames = func() *nameTable {
	t := new(nameTable)
	for _, s := range []service.Op{service.OpAccess, service.OpCall, service.OpReturn, service.OpEffRing} {
		t.intern([]byte(s))
	}
	for _, s := range []string{"read", "write", "execute", "fetch"} {
		t.intern([]byte(s))
	}
	for k := 0; k < core.ViolationKindCount; k++ {
		t.intern([]byte(core.ViolationKind(k).String()))
	}
	for o := core.CallSameRing; o <= core.CallUpwardTrap; o++ {
		t.intern([]byte(o.String()))
	}
	for o := core.ReturnSameRing; o <= core.ReturnDownwardTrap; o++ {
		t.intern([]byte(o.String()))
	}
	return t
}()

// find returns the interned copy of name.
//
//ring:hotpath
func (t *nameTable) find(name []byte) (string, bool) {
	if len(name) == 0 {
		return "", true
	}
	for i := hashName(name); ; i++ {
		s := t.slots[i%nameSlots]
		if s == "" {
			return "", false
		}
		if equal(name, s) {
			return s, true
		}
	}
}

// intern returns the interned copy of name, adding it if need be.
//
//ring:hotpath
func (t *nameTable) intern(name []byte) string {
	if s, ok := t.find(name); ok {
		return s
	}
	if t.n == nameSlots/2 {
		t.slots, t.n = [nameSlots]string{}, 0
	}
	i := hashName(name)
	for t.slots[i%nameSlots] != "" {
		i++
	}
	s := string(name) //ring:allow fallback: a name the table does not hold is copied once, then kept
	t.slots[i%nameSlots] = s
	t.n++
	return s
}

// hashName is 32-bit FNV-1a.
//
//ring:hotpath
func hashName(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}
