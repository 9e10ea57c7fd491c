package mmu_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/seg"
	"repro/internal/trace"
)

var (
	sdwA = seg.SDW{
		Present: true, Addr: 0o1000, Bound: 16, Read: true,
		Brackets: core.Brackets{R1: 1, R2: 1, R3: 5},
	}
	sdwB = seg.SDW{
		Present: true, Addr: 0o1000, Bound: 32, Read: true, Write: true,
		Brackets: core.Brackets{R1: 1, R2: 1, R3: 5},
	}
)

// newUnits builds n MMUs over one shared word-atomic core, all running
// the same descriptor segment and joined to one coherence group.
func newUnits(t *testing.T, n int) []*mmu.MMU {
	t.Helper()
	m := mem.NewAtomic(1 << 14)
	g := mmu.NewGroup()
	units := make([]*mmu.MMU, n)
	for i := range units {
		u := mmu.New(m, mmu.Options{Validate: true, CacheSize: 8})
		u.SetDBR(seg.DBR{Addr: 0, Bound: 32})
		g.Join(u)
		units[i] = u
	}
	if g.Members() != n {
		t.Fatalf("group members = %d, want %d", g.Members(), n)
	}
	return units
}

func fetch(t *testing.T, u *mmu.MMU, segno uint32) seg.SDW {
	t.Helper()
	sdw, err := u.FetchSDW(segno)
	if err != nil {
		t.Fatal(err)
	}
	return sdw
}

// TestInvalidationDiscipline is the table test for the three rules the
// associative memory lives by: StoreSDW edits are immediately effective
// (locally and, via shootdown, on every other processor), a DBR reload
// flushes stale entries, and — the negative control — a raw descriptor
// store that bypasses StoreSDW is NOT seen until a flush.
func TestInvalidationDiscipline(t *testing.T) {
	cases := []struct {
		name  string
		procs int
	}{
		{"single-processor", 1},
		{"multi-processor", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			units := newUnits(t, tc.procs)
			editor := units[0]
			const segno = 5

			if err := editor.StoreSDW(segno, sdwA); err != nil {
				t.Fatal(err)
			}
			// Every processor caches the original descriptor.
			for i, u := range units {
				if got := fetch(t, u, segno); got != sdwA {
					t.Fatalf("unit %d initial fetch = %+v, want %+v", i, got, sdwA)
				}
			}

			// Rule: a StoreSDW edit is immediately effective everywhere.
			if err := editor.StoreSDW(segno, sdwB); err != nil {
				t.Fatal(err)
			}
			for i, u := range units {
				if got := fetch(t, u, segno); got != sdwB {
					t.Errorf("unit %d sees %+v after StoreSDW, want %+v", i, got, sdwB)
				}
			}
			if inv := editor.CacheStats().Invalidations; inv == 0 {
				t.Error("editor recorded no invalidations")
			}
			for i, u := range units[1:] {
				if sd := u.CacheStats().Shootdowns; sd == 0 {
					t.Errorf("unit %d applied no shootdowns", i+1)
				}
			}

			// Negative control: a raw Table().Store bypasses the
			// discipline, so cached copies go stale...
			if err := editor.Table().Store(segno, sdwA); err != nil {
				t.Fatal(err)
			}
			for i, u := range units {
				if got := fetch(t, u, segno); got != sdwB {
					t.Errorf("unit %d = %+v; raw store should have left the stale %+v cached", i, got, sdwB)
				}
			}
			// ...until a DBR reload flushes the associative memory.
			for i, u := range units {
				u.SetDBR(u.DBR())
				if got := fetch(t, u, segno); got != sdwA {
					t.Errorf("unit %d sees %+v after DBR reload, want fresh %+v", i, got, sdwA)
				}
				if fl := u.CacheStats().Flushes; fl == 0 {
					t.Errorf("unit %d recorded no flushes", i)
				}
			}
		})
	}
}

// TestShootdownConcurrent races descriptor edits on one processor
// against fetches on the others (run under -race). After the editing
// stops, every processor must observe the final descriptor.
func TestShootdownConcurrent(t *testing.T) {
	units := newUnits(t, 4)
	editor, readers := units[0], units[1:]
	const segno = 3
	if err := editor.StoreSDW(segno, sdwA); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s := sdwA
			s.Bound = uint32(16 + i%16)
			if err := editor.StoreSDW(segno, s); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for _, u := range readers {
		wg.Add(1)
		go func(u *mmu.MMU) {
			defer wg.Done()
			for {
				sdw, err := u.FetchSDW(segno)
				if err != nil {
					t.Error(err)
					return
				}
				if !sdw.Present || sdw.Addr != sdwA.Addr {
					t.Errorf("fetched corrupt SDW %+v", sdw)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(u)
	}
	wg.Wait()

	if err := editor.StoreSDW(segno, sdwB); err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		if got := fetch(t, u, segno); got != sdwB {
			t.Errorf("unit %d final fetch = %+v, want %+v", i, got, sdwB)
		}
	}
}

func TestCacheSizeValidation(t *testing.T) {
	m := mem.New(1024)
	for _, size := range []int{-1, 3, 12, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CacheSize %d accepted", size)
				}
			}()
			mmu.New(m, mmu.Options{CacheSize: size})
		}()
	}
	for _, size := range []int{0, 1, 8, 64} {
		u := mmu.New(m, mmu.Options{CacheSize: size})
		if u.CacheSize() != size {
			t.Errorf("CacheSize() = %d, want %d", u.CacheSize(), size)
		}
	}
}

// TestCycleAccounting checks the SDWMiss charging rule: every fetch
// with the cache off, misses only with it on.
func TestCycleAccounting(t *testing.T) {
	m := mem.New(1 << 12)
	costs := mmu.Costs{SDWMiss: 2}

	off := mmu.New(m, mmu.Options{Costs: costs})
	off.SetDBR(seg.DBR{Addr: 0, Bound: 8})
	if err := off.StoreSDW(1, sdwA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fetch(t, off, 1)
	}
	if got := off.Cycles(); got != 10 {
		t.Errorf("cache-off cycles = %d, want 10", got)
	}

	on := mmu.New(m, mmu.Options{CacheSize: 8, Costs: costs})
	on.SetDBR(seg.DBR{Addr: 0, Bound: 8})
	for i := 0; i < 5; i++ {
		fetch(t, on, 1)
	}
	if got := on.Cycles(); got != 2 {
		t.Errorf("cache-on cycles = %d, want 2 (one miss)", got)
	}
	st := on.CacheStats()
	if st.Hits != 4 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 4 hits 1 miss", st)
	}
	if r := st.HitRate(); r != 0.8 {
		t.Errorf("hit rate = %v, want 0.8", r)
	}
}

// TestSinkReceivesValidationEvents checks that a counting sink sees the
// validation stream and that the disabled sink reports disabled.
func TestSinkReceivesValidationEvents(t *testing.T) {
	m := mem.New(1 << 12)
	u := mmu.New(m, mmu.Options{Validate: true})
	u.SetDBR(seg.DBR{Addr: 0, Bound: 8})
	if err := u.StoreSDW(1, sdwA); err != nil {
		t.Fatal(err)
	}

	if mmu.Disabled.Enabled() {
		t.Error("Disabled sink claims enabled")
	}
	var validates int
	u.SetSink(trace.Func(func(e trace.Event) {
		if e.Kind == trace.KindValidate {
			validates++
		}
	}))

	sdw, err := u.FetchSDW(1)
	if err != nil {
		t.Fatal(err)
	}
	if viol := u.CheckRead(sdw.View(), 1, 0, 1); viol != nil {
		t.Fatalf("read violation: %v", viol)
	}
	if viol := u.CheckWrite(sdw.View(), 1, 0, 4); viol == nil {
		t.Fatal("write on read-only segment validated")
	}
	if validates != 2 {
		t.Errorf("validate events = %d, want 2", validates)
	}

	u.SetSink(nil) // nil means disabled, not a crash
	if viol := u.CheckRead(sdw.View(), 1, 0, 1); viol != nil {
		t.Fatalf("read violation with sink off: %v", viol)
	}
	if validates != 2 {
		t.Errorf("disabled sink still recorded: %d events", validates)
	}
}
