package seg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mem"
)

func sampleSDW() SDW {
	return SDW{
		Present:  true,
		Addr:     0o1000,
		Bound:    0o2000,
		Read:     true,
		Write:    false,
		Execute:  true,
		Brackets: core.Brackets{R1: 3, R2: 3, R3: 5},
		Gate:     2,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSDW()
	even, odd := s.Encode()
	got := Decode(even, odd)
	if got != s {
		t.Errorf("round trip: got %+v want %+v", got, s)
	}
}

func TestAbsentSDW(t *testing.T) {
	s := SDW{}
	even, odd := s.Encode()
	got := Decode(even, odd)
	if got.Present {
		t.Error("absent SDW decoded as present")
	}
	if !got.View().Present {
		// consistent view
	} else {
		t.Error("view present for absent SDW")
	}
}

func TestViewProjection(t *testing.T) {
	s := sampleSDW()
	v := s.View()
	if !v.Present || !v.Read || v.Write || !v.Execute {
		t.Errorf("flags: %+v", v)
	}
	if v.Brackets != s.Brackets || v.GateCount != s.Gate || v.Bound != s.Bound {
		t.Errorf("fields: %+v", v)
	}
}

func TestSDWValidate(t *testing.T) {
	s := sampleSDW()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.Gate = s.Bound + 1
	if bad.Validate() == nil {
		t.Error("gate > bound accepted")
	}
	bad = s
	bad.Brackets = core.Brackets{R1: 5, R2: 3, R3: 7}
	if bad.Validate() == nil {
		t.Error("inverted brackets accepted")
	}
	bad = s
	bad.Addr = 1 << AddrBits
	if bad.Validate() == nil {
		t.Error("oversized address accepted")
	}
	bad = s
	bad.Bound = MaxBound + 1
	if bad.Validate() == nil {
		t.Error("oversized bound accepted")
	}
	if (SDW{}).Validate() != nil {
		t.Error("absent SDW should validate")
	}
	// The gate field is GateBits wide: a larger count within the bound
	// would be truncated by Encode, so Validate must refuse it.
	bad = s
	bad.Bound, bad.Gate = MaxBound, MaxGate+1
	if bad.Validate() == nil {
		t.Error("gate count above MaxGate accepted")
	}
	ok := s
	ok.Bound, ok.Gate = MaxBound, MaxGate
	if err := ok.Validate(); err != nil {
		t.Errorf("gate count MaxGate rejected: %v", err)
	}
	if got := Decode(ok.Encode()); got.Gate != MaxGate {
		t.Errorf("MaxGate round trip: got %d", got.Gate)
	}
}

func TestDBRRoundTrip(t *testing.T) {
	d := DBR{Addr: 0o100, Bound: 64, Stack: 0}
	even, odd := d.Encode()
	if got := DecodeDBR(even, odd); got != d {
		t.Errorf("round trip: %+v", got)
	}
	d = DBR{Addr: (1 << 24) - 1, Bound: 0o777777, Stack: MaxSegno}
	even, odd = d.Encode()
	if got := DecodeDBR(even, odd); got != d {
		t.Errorf("extremes: %+v", got)
	}
}

func TestTableStoreFetch(t *testing.T) {
	m := mem.New(4096)
	tbl := &Table{Mem: m, DBR: DBR{Addr: 0o100, Bound: 64}}
	s := sampleSDW()
	if err := tbl.Store(7, s); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Fetch(7)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("fetch: %+v", got)
	}
	// Unstored segments come back absent.
	got, err = tbl.Fetch(9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Present {
		t.Error("unstored segment present")
	}
}

func TestTableBeyondBoundIsAbsent(t *testing.T) {
	m := mem.New(4096)
	tbl := &Table{Mem: m, DBR: DBR{Addr: 0o100, Bound: 8}}
	got, err := tbl.Fetch(8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Present {
		t.Error("segment beyond DBR bound present")
	}
	got, err = tbl.Fetch(MaxSegno + 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Present {
		t.Error("huge segno present")
	}
	if err := tbl.Store(8, sampleSDW()); err == nil {
		t.Error("store beyond bound accepted")
	}
}

func TestTableStoreRejectsInvalid(t *testing.T) {
	m := mem.New(4096)
	tbl := &Table{Mem: m, DBR: DBR{Addr: 0o100, Bound: 8}}
	bad := sampleSDW()
	bad.Brackets = core.Brackets{R1: 6, R2: 2, R3: 1}
	if err := tbl.Store(0, bad); err == nil {
		t.Error("invalid SDW stored")
	}
}

func TestTranslate(t *testing.T) {
	s := sampleSDW()
	if got := Translate(s, 5); got != 0o1005 {
		t.Errorf("Translate = %o", got)
	}
	if got := Translate(s, 0); got != 0o1000 {
		t.Errorf("Translate(0) = %o", got)
	}
}

func TestStrings(t *testing.T) {
	if (SDW{}).String() != "SDW{absent}" {
		t.Error("absent string")
	}
	s := sampleSDW().String()
	if s == "" {
		t.Error("empty string")
	}
}

// Property: SDW encode/decode is the identity over the full field space.
func TestQuickSDWRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		r1 := core.Ring(rng.Intn(8))
		r2 := r1 + core.Ring(rng.Intn(int(8-r1)))
		r3 := r2 + core.Ring(rng.Intn(int(8-r2)))
		s := SDW{
			Present:  rng.Intn(2) == 0,
			Addr:     uint32(rng.Intn(1 << 24)),
			Bound:    uint32(rng.Intn(1 << 18)),
			Read:     rng.Intn(2) == 0,
			Write:    rng.Intn(2) == 0,
			Execute:  rng.Intn(2) == 0,
			Brackets: core.Brackets{R1: r1, R2: r2, R3: r3},
			Gate:     uint32(rng.Intn(1 << 14)),
		}
		even, odd := s.Encode()
		if got := Decode(even, odd); got != s {
			t.Fatalf("round trip: got %+v want %+v", got, s)
		}
	}
}

// Property: DBR encode/decode is the identity.
func TestQuickDBRRoundTrip(t *testing.T) {
	f := func(addr, bound, stack uint32) bool {
		d := DBR{Addr: addr % (1 << 24), Bound: bound % (1 << 18), Stack: stack % (1 << 14)}
		even, odd := d.Encode()
		return DecodeDBR(even, odd) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Table.Store then Fetch returns the stored SDW for every
// in-bound segment number and disturbs no neighbouring SDW.
func TestQuickTableIsolation(t *testing.T) {
	m := mem.New(8192)
	tbl := &Table{Mem: m, DBR: DBR{Addr: 0, Bound: 32}}
	base := sampleSDW()
	for i := uint32(0); i < 32; i++ {
		s := base
		s.Addr = 0o1000 + i
		if err := tbl.Store(i, s); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 32; i++ {
		got, err := tbl.Fetch(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Addr != 0o1000+i {
			t.Fatalf("segment %d has addr %o", i, got.Addr)
		}
	}
}
