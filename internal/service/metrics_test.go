package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// snakeKey is the one naming style /metrics speaks: lower-case words
// joined by underscores.
var snakeKey = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)*$`)

// collectKeys walks a decoded JSON document and gathers every object
// key.
func collectKeys(v interface{}, out map[string]bool) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, sub := range x {
			out[k] = true
			collectKeys(sub, out)
		}
	case []interface{}:
		for _, sub := range x {
			collectKeys(sub, out)
		}
	}
}

// TestMetricsKeysAreSnakeCase pins the /metrics key space: every key,
// including the dynamic fault and event map keys that once leaked
// their human-readable spellings ("outside read bracket",
// "ring-switch"), is snake_case.
func TestMetricsKeysAreSnakeCase(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	// Traffic that populates faults (a read-bracket denial) and events
	// (the read check's validate event; the service records no other
	// kind, so the CALL adds none).
	qs := []Query{
		{Op: OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead},
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},
	}
	if _, err := svc.Submit(context.Background(), qs); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := svc.Snapshot()
	if len(snap.Faults) == 0 || len(snap.Events) == 0 {
		t.Fatalf("traffic did not populate faults (%v) or events (%v)", snap.Faults, snap.Events)
	}

	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var doc interface{}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	keys := map[string]bool{}
	collectKeys(doc, keys)
	if len(keys) == 0 {
		t.Fatal("no keys collected")
	}
	for k := range keys {
		if !snakeKey.MatchString(k) {
			t.Errorf("metrics key %q is not snake_case", k)
		}
	}
	if snap.Faults[metricKey(core.ViolationReadBracket.String())] != 1 {
		t.Errorf("normalized fault key missing: %v", snap.Faults)
	}
}

// TestMetricKey covers the normalization itself.
func TestMetricKey(t *testing.T) {
	cases := map[string]string{
		"outside read bracket": "outside_read_bracket",
		"ring-switch":          "ring_switch",
		"validate":             "validate",
	}
	for in, want := range cases {
		if got := metricKey(in); got != want {
			t.Errorf("metricKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLatencyBucket checks the histogram's bucket choice against the
// shift loop it replaced, at every power-of-two boundary and one either
// side of it, and at zero and below.
func TestLatencyBucket(t *testing.T) {
	shiftLoop := func(v int64) int {
		bucket := 0
		for ; v > 1 && bucket < latencyBuckets-1; v >>= 1 {
			bucket++
		}
		return bucket
	}
	vs := []int64{math.MinInt64, -1, 0, math.MaxInt64}
	for i := 0; i < 63; i++ {
		p := int64(1) << i
		vs = append(vs, p-1, p, p+1)
	}
	for _, v := range vs {
		if got, want := latencyBucket(v), shiftLoop(v); got != want {
			t.Errorf("latencyBucket(%d) = %d, want %d", v, got, want)
		}
	}
}

// snapshotCounts flattens a Snapshot's counters into one map keyed by
// /metrics path ("ops.access", "per_worker_reads.1.pins",
// "latency_ns.1024"), so two scrapes can be compared counter by
// counter.
func snapshotCounts(s Snapshot) map[string]uint64 {
	m := map[string]uint64{
		"batches": s.Batches, "queries": s.Queries, "rejected": s.Rejected,
		"allowed": s.Allowed, "denied": s.Denied, "errors": s.Errors, "trapped": s.Trapped,
		"reads.pins": s.Reads.Pins, "reads.lookups": s.Reads.Lookups,
	}
	for k, n := range s.Ops {
		m["ops."+k] = n
	}
	for k, n := range s.Faults {
		m["faults."+k] = n
	}
	for k, n := range s.Events {
		m["events."+k] = n
	}
	for i, r := range s.PerWorkerReads {
		m[fmt.Sprintf("per_worker_reads.%d.pins", i)] = r.Pins
		m[fmt.Sprintf("per_worker_reads.%d.lookups", i)] = r.Lookups
	}
	for _, b := range s.LatencyNs {
		m[fmt.Sprintf("latency_ns.%d", b.LoNs)] = b.Count
	}
	return m
}

// wentDown lists the counters that are lower in cur than in prev.
func wentDown(prev, cur Snapshot) []string {
	c := snapshotCounts(cur)
	var down []string
	for k, n := range snapshotCounts(prev) {
		if c[k] < n {
			down = append(down, fmt.Sprintf("%s %d -> %d", k, n, c[k]))
		}
	}
	sort.Strings(down)
	return down
}

// checkTotals checks that snap counts exactly batches batches of the
// traffic whose one-batch counts are unit (per-slot reads and latency
// buckets aside), and that the latency histogram sums to Batches.
func checkTotals(t *testing.T, snap Snapshot, unit map[string]uint64, batches uint64) {
	t.Helper()
	perBatch := func(k string) bool {
		return !strings.HasPrefix(k, "per_worker_reads.") && !strings.HasPrefix(k, "latency_ns.")
	}
	got := snapshotCounts(snap)
	for k, n := range unit {
		if perBatch(k) && got[k] != n*batches {
			t.Errorf("%s = %d, want %d", k, got[k], n*batches)
		}
	}
	for k, n := range got {
		if _, ok := unit[k]; perBatch(k) && !ok {
			t.Errorf("unexpected counter %s = %d", k, n)
		}
	}
	var lat uint64
	for _, b := range snap.LatencyNs {
		lat += b.Count
	}
	if lat != snap.Batches {
		t.Errorf("latency histogram sums to %d, want %d batches", lat, snap.Batches)
	}
}

// submitOn decides one batch on slot k: every other slot is held for
// the call, so the caller's scan can find only k.
func submitOn(t *testing.T, svc *Service, k int, qs []Query) {
	t.Helper()
	for _, sl := range svc.slots {
		if sl.index != k && !sl.busy.CompareAndSwap(false, true) {
			t.Fatalf("slot %d busy", sl.index)
		}
	}
	_, err := svc.Submit(context.Background(), qs)
	for _, sl := range svc.slots {
		if sl.index != k {
			sl.busy.Store(false)
		}
	}
	if err != nil {
		t.Fatalf("Submit on slot %d: %v", k, err)
	}
}

// TestSnapshotCollectsPendingTallies checks that Snapshot reports every
// batch once the service is quiet, whatever number of batches each
// slot has run; that it never waits for a held slot nor reports less
// than an earlier scrape did; and that scrapes taken beside running
// callers never go down and never cost a caller its admission.
func TestSnapshotCollectsPendingTallies(t *testing.T) {
	qs := []Query{
		{Op: OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},   // allowed
		{Op: OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead}, // read bracket fault
		{Op: OpReturn, Ring: 3, Segment: "code", EffRing: ring(1)},        // trap
		{Op: OpAccess, Ring: 3, Segment: "nonesuch"},                      // error
	}
	one := newTestService(t, Config{Workers: 1})
	if _, err := one.Submit(context.Background(), qs); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	unitSnap := one.Snapshot()
	unit := snapshotCounts(unitSnap)
	if unit["batches"] != 1 || unit["queries"] != uint64(len(qs)) || unit["allowed"] == 0 ||
		unit["denied"] == 0 || unit["trapped"] == 0 || unit["errors"] == 0 || unit["reads.pins"] == 0 {
		t.Fatalf("one batch counts %v", unit)
	}
	perSlotReads := func(n uint64) ReaderSnapshot {
		return ReaderSnapshot{Pins: n * unitSnap.Reads.Pins, Lookups: n * unitSnap.Reads.Lookups}
	}

	t.Run("quiet", func(t *testing.T) {
		const workers = 3
		layouts := []struct {
			name string
			slot func(i int) int
		}{
			{"one slot", func(int) int { return 0 }},
			{"round robin", func(i int) int { return i % workers }},
			{"skewed", func(i int) int {
				if i%4 != 3 {
					return 0
				}
				return 1 + i/4%2
			}},
		}
		for _, n := range []int{5, 63, 64, 130} {
			for _, l := range layouts {
				t.Run(fmt.Sprintf("%d/%s", n, l.name), func(t *testing.T) {
					svc := newTestService(t, Config{Workers: workers})
					var perSlot [workers]uint64
					for i := 0; i < n; i++ {
						k := l.slot(i)
						submitOn(t, svc, k, qs)
						perSlot[k]++
					}
					snap := svc.Snapshot()
					checkTotals(t, snap, unit, uint64(n))
					if len(snap.PerWorkerReads) != workers {
						t.Fatalf("per-worker reads = %+v, want %d slots", snap.PerWorkerReads, workers)
					}
					for k, c := range perSlot {
						if got, want := snap.PerWorkerReads[k], perSlotReads(c); got != want {
							t.Errorf("slot %d reads = %+v, want %+v", k, got, want)
						}
					}
					assertIdle(t, svc)
				})
			}
		}
	})

	t.Run("held slots", func(t *testing.T) {
		svc := newTestService(t, Config{Workers: 2, QueueDepth: 4})
		for i := 0; i < 10; i++ {
			submitOn(t, svc, i%2, qs)
		}
		prev := svc.Snapshot()
		checkTotals(t, prev, unit, 10)
		for i := 0; i < 20; i++ {
			submitOn(t, svc, i%2, qs)
		}
		release := occupy(t, svc)
		scraped := make(chan Snapshot, 1)
		go func() { scraped <- svc.Snapshot() }()
		var held Snapshot
		select {
		case held = <-scraped:
		case <-time.After(5 * time.Second):
			t.Fatal("Snapshot waited for a held slot")
		}
		if down := wentDown(prev, held); len(down) > 0 {
			t.Errorf("scrape with slots held went down: %v", down)
		}
		release()
		after := svc.Snapshot()
		checkTotals(t, after, unit, 30)
		if down := wentDown(held, after); len(down) > 0 {
			t.Errorf("scrape after release went down: %v", down)
		}
		for k, r := range after.PerWorkerReads {
			if want := perSlotReads(15); r != want {
				t.Errorf("slot %d reads = %+v, want %+v", k, r, want)
			}
		}
		assertIdle(t, svc)
	})

	t.Run("scraped under load", func(t *testing.T) {
		const workers, depth, callers, rounds = 2, 2, 4, 300
		svc := newTestService(t, Config{Workers: workers, QueueDepth: depth})
		stop := make(chan struct{})
		scrapes := make(chan int, 1)
		go func() {
			prev, n := svc.Snapshot(), 0
			for {
				select {
				case <-stop:
					scrapes <- n
					return
				default:
				}
				cur := svc.Snapshot()
				if down := wentDown(prev, cur); len(down) > 0 {
					t.Errorf("scrape %d went down: %v", n, down)
				}
				prev = cur
				n++
			}
		}()
		var wg sync.WaitGroup
		var decided atomic.Uint64
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]Decision, len(qs))
				for i := 0; i < rounds; i++ {
					if err := svc.SubmitInto(context.Background(), qs, dst); err != nil {
						t.Errorf("SubmitInto: %v", err)
						return
					}
					decided.Add(1)
				}
			}()
		}
		wg.Wait()
		close(stop)
		if n := <-scrapes; n == 0 {
			t.Error("no scrape ran beside the callers")
		}
		checkTotals(t, svc.Snapshot(), unit, decided.Load())
		if decided.Load() != callers*rounds {
			t.Errorf("callers decided %d batches, want %d", decided.Load(), callers*rounds)
		}
		assertIdle(t, svc)
	})
}
