package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seg"
)

// testSegments is the image most service tests run against:
//
//	0 "data"   R W -  brackets (2,4,4)          — a writable data segment
//	1 "code"   R - E  brackets (1,3,5) gates 2  — a gated procedure segment
//	2 "secret" R - -  brackets (0,1,1)          — readable only near ring 0
func testSegments() []Segment {
	return []Segment{
		{Name: "data", Size: 16, Read: true, Write: true,
			Brackets: core.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 32, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
		{Name: "secret", Size: 8, Read: true,
			Brackets: core.Brackets{R1: 0, R2: 1, R3: 1}},
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func ring(r core.Ring) *Ring { return &r }

// TestDecisions checks the decision procedure for every op against the
// paper's figures, through the full Submit path.
func TestDecisions(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})

	cases := []struct {
		name string
		q    Query
		want Decision
	}{
		{"read data in bracket",
			Query{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 5, Kind: core.AccessRead},
			Decision{Allowed: true}},
		{"read data above bracket",
			Query{Op: OpAccess, Ring: 5, Segment: "data", Kind: core.AccessRead},
			Decision{ViolationKind: core.ViolationReadBracket}},
		{"write data in bracket",
			Query{Op: OpAccess, Ring: 2, Segment: "data", Kind: core.AccessWrite},
			Decision{Allowed: true}},
		{"write data above bracket",
			Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessWrite},
			Decision{ViolationKind: core.ViolationWriteBracket}},
		{"write read-only segment",
			Query{Op: OpAccess, Ring: 0, Segment: "secret", Kind: core.AccessWrite},
			Decision{ViolationKind: core.ViolationNoWrite}},
		{"fetch code in bracket",
			Query{Op: OpAccess, Ring: 2, Segment: "code", Kind: core.AccessExecute},
			Decision{Allowed: true}},
		{"fetch code below bracket",
			Query{Op: OpAccess, Ring: 0, Segment: "code", Kind: core.AccessExecute},
			Decision{ViolationKind: core.ViolationExecuteBracket}},
		{"fetch non-executable segment",
			Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessExecute},
			Decision{ViolationKind: core.ViolationNoExecute}},
		{"read beyond bound",
			Query{Op: OpAccess, Ring: 3, Segment: "data", Wordno: 16, Kind: core.AccessRead},
			Decision{ViolationKind: core.ViolationBound}},
		{"read unknown segno",
			Query{Op: OpAccess, Ring: 3, Segno: 99, Kind: core.AccessRead},
			Decision{ViolationKind: core.ViolationMissingSegment}},

		{"downward call through gate",
			Query{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},
			Decision{Allowed: true, Outcome: "downward call", NewRing: 3}},
		{"same-ring call to gate",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 1},
			Decision{Allowed: true, Outcome: "same-ring call", NewRing: 2}},
		{"call to non-gate word",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 5},
			Decision{ViolationKind: core.ViolationNotAGate}},
		{"same-segment call ignores gate list",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 5, SameSegment: true},
			Decision{Allowed: true, Outcome: "same-ring call", NewRing: 2}},
		{"upward call traps",
			Query{Op: OpCall, Ring: 0, Segment: "code", Wordno: 0},
			Decision{Allowed: true, Outcome: "upward call (trap)", NewRing: 1, Trapped: true}},
		{"call from above gate extension",
			Query{Op: OpCall, Ring: 6, Segment: "code", Wordno: 0},
			Decision{ViolationKind: core.ViolationGateExtension}},
		{"disguised upward call",
			Query{Op: OpCall, Ring: 2, Segment: "code", Wordno: 0, EffRing: ring(4)},
			Decision{ViolationKind: core.ViolationRingAlarm}},

		{"same-ring return",
			Query{Op: OpReturn, Ring: 3, Segment: "code"},
			Decision{Allowed: true, Outcome: "same-ring return", NewRing: 3}},
		{"upward return",
			Query{Op: OpReturn, Ring: 2, Segment: "code", EffRing: ring(3)},
			Decision{Allowed: true, Outcome: "upward return", NewRing: 3}},
		{"downward return traps",
			Query{Op: OpReturn, Ring: 3, Segment: "code", EffRing: ring(1)},
			Decision{Allowed: true, Outcome: "downward return (trap)", NewRing: 1, Trapped: true}},

		{"effective ring over chain",
			Query{Op: OpEffRing, Ring: 2, Chain: []ChainStep{
				{PR: true, Ring: 3},
				{Ring: 1, Segno: 0}, // indirect word in "data": R1=2
			}},
			Decision{Allowed: true, NewRing: 3}},
		{"chain read violation",
			Query{Op: OpEffRing, Ring: 4, Chain: []ChainStep{{Ring: 0, Segno: 2}}},
			Decision{ViolationKind: core.ViolationReadBracket}},
	}

	queries := make([]Query, len(cases))
	for i, c := range cases {
		queries[i] = c.q
	}
	ds, err := svc.Submit(context.Background(), queries)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, c := range cases {
		got := ds[i]
		if got.Err != "" {
			t.Errorf("%s: unexpected query error %q", c.name, got.Err)
			continue
		}
		if got.VersionLo != 0 || got.VersionHi != 0 {
			t.Errorf("%s: version interval [%d,%d] on an unmutated store", c.name, got.VersionLo, got.VersionHi)
		}
		if want := wantShard(svc.Store(), c.q); got.Shard != want {
			t.Errorf("%s: shard = %d, want %d", c.name, got.Shard, want)
		}
		want := c.want
		want.Violation = want.ViolationKind.String()
		if want.ViolationKind == core.ViolationNone {
			want.Violation = ""
		}
		got.VersionLo, got.VersionHi, got.Worker, got.Shard = 0, 0, 0, 0
		if got != want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, want)
		}
	}
}

// wantShard computes, independently of evalQuery, the shard a
// well-formed query's decision must report: the target segment's shard,
// or for effring the single shard its indirect steps consult (-1 when
// none or several).
func wantShard(st *Store, q Query) int {
	segno := q.Segno
	if q.Segment != "" {
		if n, ok := st.Segno(q.Segment); ok {
			segno = n
		}
	}
	if q.Op != OpEffRing {
		return st.ShardOf(segno)
	}
	sh := -1
	for _, step := range q.Chain {
		if step.PR {
			continue
		}
		s := st.ShardOf(step.Segno)
		if sh == -1 {
			sh = s
		} else if sh != s {
			return -1
		}
	}
	return sh
}

// TestQueryErrors checks that malformed queries come back as Err, not
// violations.
func TestQueryErrors(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	bad := []Query{
		{Op: OpAccess, Ring: 3, Segment: "nonesuch", Kind: core.AccessRead},
		{Op: "frobnicate", Ring: 3, Segment: "data"},
		{Op: OpAccess, Ring: 8, Segment: "data", Kind: core.AccessRead},
		{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessKind(9)},
		{Op: OpCall, Ring: 3, Segment: "code", EffRing: ring(12)},
		{Op: OpEffRing, Ring: 3, Chain: []ChainStep{{PR: true, Ring: 9}}},
	}
	ds, err := svc.Submit(context.Background(), bad)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i, d := range ds {
		if d.Err == "" {
			t.Errorf("query %d: want Err, got %+v", i, d)
		}
		if d.Allowed {
			t.Errorf("query %d: malformed query allowed", i)
		}
		if d.Shard != -1 || d.VersionLo != 0 || d.VersionHi != 0 {
			t.Errorf("query %d: malformed query reports shard %d interval [%d,%d]; want no interval",
				i, d.Shard, d.VersionLo, d.VersionHi)
		}
	}
	if got := svc.Snapshot().Errors; got != uint64(len(bad)) {
		t.Errorf("errors counter = %d, want %d", got, len(bad))
	}
}

// TestBatchLimit checks the per-batch cap.
func TestBatchLimit(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, BatchLimit: 2})
	qs := make([]Query, 3)
	for i := range qs {
		qs[i] = Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}
	}
	if _, err := svc.Submit(context.Background(), qs); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("Submit(3) with BatchLimit 2: err = %v, want ErrBatchTooLarge", err)
	}
	if _, err := svc.Submit(context.Background(), qs[:2]); err != nil {
		t.Fatalf("Submit(2): %v", err)
	}
}

// occupy takes every decision slot, each counted as one admitted
// batch, as if Workers batches were mid-evaluation. The returned
// function (also run at test cleanup, before the service closes) hands
// the slots back.
func occupy(t *testing.T, svc *Service) (release func()) {
	t.Helper()
	held := make([]*slot, 0, svc.Workers())
	for i := 0; i < svc.Workers(); i++ {
		svc.inflight.Add(1)
		held = append(held, svc.tryAcquire())
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for _, sl := range held {
				sl.busy.Store(false)
				select {
				case svc.wake <- struct{}{}:
				default:
				}
				svc.leave()
			}
		})
	}
	t.Cleanup(release)
	return release
}

// assertIdle checks that no admission or slot leaked: nothing in
// flight, nobody waiting, every slot free.
func assertIdle(t *testing.T, svc *Service) {
	t.Helper()
	if n := svc.inflight.Load(); n != 0 {
		t.Errorf("admitted count = %d after all callers returned, want 0", n)
	}
	if n := svc.waiting.Load(); n != 0 {
		t.Errorf("waiting count = %d after all callers returned, want 0", n)
	}
	for _, sl := range svc.slots {
		if sl.busy.Load() {
			t.Errorf("slot %d still busy", sl.index)
		}
	}
}

// TestBackpressure occupies the only slot, lets one caller wait for
// it, and checks that the next caller — beyond Workers+QueueDepth —
// sheds with ErrQueueFull; the waiter completes once the slot is back.
func TestBackpressure(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	release := occupy(t, svc)

	qs := []Query{{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}}
	result := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), qs)
		result <- err
	}()
	waitFor(t, "caller to wait for a slot", func() bool { return svc.Snapshot().QueueLen == 1 })

	if _, err := svc.Submit(context.Background(), qs); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit beyond the admission bound: err = %v, want ErrQueueFull", err)
	}
	if got := svc.Snapshot().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}

	release()
	select {
	case err := <-result:
		if err != nil {
			t.Errorf("waiting batch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting batch did not complete after release")
	}
	assertIdle(t, svc)
}

// TestSubmitContextCancelled checks that a caller whose context is
// already done when it must wait for a slot returns the context error
// without writing dst.
func TestSubmitContextCancelled(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1, QueueDepth: 2})
	release := occupy(t, svc)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := []Query{{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}}
	dst := []Decision{{Err: "untouched"}}
	if err := svc.SubmitInto(ctx, qs, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitInto with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if dst[0] != (Decision{Err: "untouched"}) {
		t.Errorf("cancelled SubmitInto wrote dst: %+v", dst[0])
	}
	release()
	assertIdle(t, svc)
}

// TestAdmissionShedsExcess runs more callers than Workers+QueueDepth.
// With every slot occupied the admission bound is exact: QueueDepth
// callers wait, the rest shed with ErrQueueFull and are counted. Then
// unsynchronized callers hammer the service; afterwards no admission
// or slot has leaked.
func TestAdmissionShedsExcess(t *testing.T) {
	const workers, depth, callers = 2, 3, 12
	svc := newTestService(t, Config{Workers: workers, QueueDepth: depth})
	release := occupy(t, svc)

	qs := []Query{{Op: OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead}}
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := svc.Submit(context.Background(), qs)
			errs <- err
		}()
	}
	for i := 0; i < callers-depth; i++ {
		if err := <-errs; !errors.Is(err, ErrQueueFull) {
			t.Fatalf("caller beyond the bound: err = %v, want ErrQueueFull", err)
		}
	}
	waitFor(t, "waiters to queue", func() bool { return svc.Snapshot().QueueLen == depth })
	if got := svc.Snapshot().Rejected; got != callers-depth {
		t.Errorf("Rejected = %d, want %d", got, callers-depth)
	}
	release()
	for i := 0; i < depth; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted caller: %v", err)
		}
	}
	assertIdle(t, svc)

	// Unsynchronized load: every call either decides or sheds, and the
	// shed count is exactly what the callers saw.
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, shed := 0, 0
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]Decision, 1)
			for i := 0; i < 200; i++ {
				err := svc.SubmitInto(context.Background(), qs, dst)
				mu.Lock()
				switch {
				case err == nil && dst[0].Allowed:
					ok++
				case errors.Is(err, ErrQueueFull):
					shed++
				default:
					t.Errorf("SubmitInto: err = %v, decision %+v", err, dst[0])
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	snap := svc.Snapshot()
	if got := int(snap.Rejected) - (callers - depth); got != shed {
		t.Errorf("Rejected grew by %d, callers saw %d sheds", got, shed)
	}
	if got := int(snap.Batches) - depth; got != ok {
		t.Errorf("Batches grew by %d, callers saw %d decided batches", got, ok)
	}
	assertIdle(t, svc)
}

// TestWaitersNeverStall runs many more callers than slots, all within
// the admission bound, so most calls wait: every one must be woken and
// decided — a lost wake-up would hang the test.
func TestWaitersNeverStall(t *testing.T) {
	const callers, rounds = 24, 500
	for _, workers := range []int{1, 3} {
		svc := newTestService(t, Config{Workers: workers, QueueDepth: callers})
		qs := []Query{{Op: OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead}}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]Decision, 1)
				for i := 0; i < rounds; i++ {
					if err := svc.SubmitInto(context.Background(), qs, dst); err != nil {
						t.Errorf("SubmitInto: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := svc.Snapshot().Batches; got != callers*rounds {
			t.Errorf("%d slots: batches = %d, want %d", workers, got, callers*rounds)
		}
		assertIdle(t, svc)
	}
}

// TestSubmitCancelledWhileWaiting cancels a caller parked on a free
// slot: it returns ctx.Err(), leaves dst untouched and gives back its
// admission.
func TestSubmitCancelledWhileWaiting(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2, QueueDepth: 3})
	release := occupy(t, svc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	qs := []Query{{Op: OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead}}
	dst := []Decision{{Err: "untouched"}}
	result := make(chan error, 1)
	go func() { result <- svc.SubmitInto(ctx, qs, dst) }()
	waitFor(t, "caller to wait for a slot", func() bool { return svc.Snapshot().QueueLen == 1 })

	cancel()
	if err := <-result; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	if dst[0] != (Decision{Err: "untouched"}) {
		t.Errorf("cancelled waiter wrote dst: %+v", dst[0])
	}
	if n := svc.inflight.Load(); n != int64(svc.Workers()) {
		t.Errorf("admitted count = %d, want %d (the occupied slots only)", n, svc.Workers())
	}
	release()
	assertIdle(t, svc)
	if _, err := svc.Submit(context.Background(), qs); err != nil {
		t.Fatalf("Submit after cancelled waiter: %v", err)
	}
}

// TestCloseWaitsForInFlight starts Close while a batch is admitted and
// waiting for a slot: admission stops at once, Close blocks until that
// batch has been decided, then releases every reader.
func TestCloseWaitsForInFlight(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2, QueueDepth: 3})
	release := occupy(t, svc)

	qs := []Query{{Op: OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead}}
	dst := make([]Decision, 1)
	result := make(chan error, 1)
	go func() { result <- svc.SubmitInto(context.Background(), qs, dst) }()
	waitFor(t, "caller to wait for a slot", func() bool { return svc.Snapshot().QueueLen == 1 })

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	// Probe admission with a done context, so a probe admitted before
	// Close begins returns at once instead of waiting for a slot.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	waitFor(t, "Close to stop admission", func() bool {
		_, err := svc.Submit(done, qs)
		return errors.Is(err, ErrClosed)
	})
	select {
	case <-closed:
		t.Fatal("Close returned with a batch still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	if got := svc.Store().RCUStats().Readers; got != svc.Workers() {
		t.Errorf("readers = %d while draining, want %d", got, svc.Workers())
	}

	release()
	if err := <-result; err != nil {
		t.Fatalf("in-flight batch: %v", err)
	}
	if !dst[0].Allowed {
		t.Errorf("in-flight batch decided %+v, want allowed", dst[0])
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight batch finished")
	}
	if got := svc.Store().RCUStats().Readers; got != 0 {
		t.Errorf("readers = %d after Close, want 0", got)
	}
	if _, err := svc.Submit(context.Background(), qs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestGracefulShutdown checks that Close drains queued work and that
// Submit afterwards reports ErrClosed.
func TestGracefulShutdown(t *testing.T) {
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	qs := []Query{{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := svc.Submit(context.Background(), qs)
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}()
	}
	wg.Wait() // all in-flight work done before Close
	svc.Close()
	svc.Close() // idempotent

	for _, err := range errs {
		if err != nil {
			t.Errorf("pre-close Submit: %v", err)
		}
	}
	if _, err := svc.Submit(context.Background(), qs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// oracleService builds a single-slot service over a fresh store of
// testSegments with the given shard count: the single-threaded oracle
// the concurrent tests replay their edit scripts against, independent
// of the store under test.
func oracleService(t *testing.T, shards int) *Service {
	t.Helper()
	st, err := NewStore(StoreConfig{Shards: shards}, testSegments())
	if err != nil {
		t.Fatalf("oracle NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 1})
	if err != nil {
		t.Fatalf("oracle New: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// shardScript is segment segno's mutation sequence for the sharded
// oracle test: each mutation changes the brackets or the present bit of
// its descriptor. Each segment of testSegments lives in its own shard
// (of 4), so shard segno's epoch counts exactly these mutations.
func shardScript(segno uint32, n int) []func(st *Store) error {
	muts := make([]func(st *Store) error, n)
	for i := range muts {
		alt := i%2 == 0
		switch segno {
		case 0: // data: brackets swing between wide and narrow
			b := core.Brackets{R1: 2, R2: 4, R3: 4}
			if alt {
				b = core.Brackets{R1: 0, R2: 1, R3: 1}
			}
			muts[i] = func(st *Store) error { return st.SetBrackets(0, true, true, false, b, 0) }
		case 1: // code: presence toggles
			if alt {
				muts[i] = func(st *Store) error { return st.Revoke(1) }
			} else {
				muts[i] = func(st *Store) error { return st.Restore(1) }
			}
		default: // secret: read bracket widens and narrows
			b := core.Brackets{R1: 0, R2: 1, R3: 1}
			if alt {
				b = core.Brackets{R1: 0, R2: 3, R3: 3}
			}
			muts[i] = func(st *Store) error { return st.SetBrackets(2, true, false, false, b, 0) }
		}
	}
	return muts
}

// shardProbes is the fixed probe batch for the sharded oracle test,
// every probe consulting exactly one segment; probeSegno gives the
// segment (= shard, with 4 shards) each probe targets.
func shardProbes() (probes []Query, probeSegno []uint32) {
	probes = []Query{
		{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 3, Kind: core.AccessRead},
		{Op: OpAccess, Ring: 1, Segment: "data", Kind: core.AccessWrite},
		{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessWrite},
		{Op: OpEffRing, Ring: 1, Chain: []ChainStep{{Ring: 0, Segno: 0}}},
		{Op: OpAccess, Ring: 2, Segment: "code", Kind: core.AccessExecute},
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},
		{Op: OpCall, Ring: 0, Segment: "code", Wordno: 0},
		{Op: OpReturn, Ring: 2, Segment: "code", EffRing: ring(3)},
		{Op: OpAccess, Ring: 1, Segment: "secret", Kind: core.AccessRead},
		{Op: OpAccess, Ring: 3, Segment: "secret", Kind: core.AccessRead},
	}
	probeSegno = []uint32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	return probes, probeSegno
}

// stripDecision clears the fields that legitimately differ between a
// concurrent decision and its oracle counterpart. Shard is kept: the
// oracle store is built with the same shard count, so the reported
// shard must agree too.
func stripDecision(d Decision) Decision {
	d.VersionLo, d.VersionHi, d.Worker = 0, 0, 0
	return d
}

// TestShardedConcurrentOracle extends the T12 differential property to
// the sharded store: one mutator goroutine per shard streams descriptor
// edits while four decision slots answer single-segment probes. Every decision
// reports the epoch interval of the shard it consulted; replaying that
// shard's script single-threaded, the decision must be identical to the
// oracle's answer at some state within the interval — regardless of
// what the other shards' mutators were doing at the time. Run with
// -race to also exercise snapshot publication and the per-shard locks
// under the race detector.
func TestShardedConcurrentOracle(t *testing.T) {
	const (
		shards    = 4
		mutations = 600 // per shard
		rounds    = 30
		clients   = 4
	)
	st, err := NewStore(StoreConfig{Shards: shards}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()

	probes, probeSegno := shardProbes()
	scripts := [3][]func(st *Store) error{}
	for g := range scripts {
		scripts[g] = shardScript(uint32(g), mutations)
	}

	// Concurrent phase: in every round the clients' batches race one
	// slice of each shard's script, with the three mutators themselves
	// racing one another. The round barrier guarantees edits interleave
	// with decisions across the run even on a single-CPU host.
	type obs struct{ ds []Decision }
	results := make(chan obs, clients*rounds)
	perRound := mutations / rounds
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ds, err := svc.Submit(context.Background(), probes)
				if err != nil {
					if errors.Is(err, ErrQueueFull) {
						return // backpressure is a legal answer
					}
					t.Errorf("Submit: %v", err)
					return
				}
				results <- obs{ds}
			}()
		}
		for g := range scripts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, m := range scripts[g][round*perRound : (round+1)*perRound] {
					if err := m(st); err != nil {
						t.Errorf("shard %d mutation: %v", g, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	close(results)

	for g := range scripts {
		if got := st.ShardVersion(g); got != 2*mutations {
			t.Fatalf("shard %d final epoch = %d, want %d", g, got, 2*mutations)
		}
	}
	if got := st.ShardVersion(3); got != 0 {
		t.Fatalf("empty shard 3 epoch = %d, want 0", got)
	}
	if got := st.Version(); got != uint64(len(scripts))*2*mutations {
		t.Fatalf("store version = %d, want %d", got, len(scripts)*2*mutations)
	}

	// Oracle replay, one shard at a time: a single-slot service over a
	// fresh store stepped through only shard g's script. Probes are
	// single-segment, so the other shards' states cannot influence a
	// shard-g decision — which is exactly the independence the oracle
	// match below certifies.
	oracle := [3][][]Decision{} // oracle[g][k][j]: shard-g probe j at state k
	for g := range scripts {
		osvc := oracleService(t, shards)
		oracle[g] = make([][]Decision, mutations+1)
		for k := 0; k <= mutations; k++ {
			if k > 0 {
				if err := scripts[g][k-1](osvc.Store()); err != nil {
					t.Fatalf("oracle shard %d mutation %d: %v", g, k, err)
				}
			}
			ds, err := osvc.Submit(context.Background(), probes)
			if err != nil {
				t.Fatalf("oracle shard %d state %d: %v", g, k, err)
			}
			for i, d := range ds {
				if probeSegno[i] == uint32(g) {
					oracle[g][k] = append(oracle[g][k], stripDecision(d))
				}
			}
		}
	}
	// probeIdx[i] is probe i's index within its shard's oracle rows.
	probeIdx := make([]int, len(probes))
	seen := map[uint32]int{}
	for i, g := range probeSegno {
		probeIdx[i] = seen[g]
		seen[g]++
	}

	checked, clean := 0, 0
	for o := range results {
		for i, d := range o.ds {
			g := int(probeSegno[i])
			if d.Shard != g {
				t.Fatalf("probe %d: decision reports shard %d, want %d", i, d.Shard, g)
			}
			lo, hi := d.VersionLo, d.VersionHi
			if hi < lo {
				t.Fatalf("probe %d: epoch interval [%d,%d] runs backwards", i, lo, hi)
			}
			loState, hiState := lo/2, (hi+1)/2
			if lo == hi && lo%2 == 0 {
				clean++
			}
			got := stripDecision(d)
			matched := false
			for k := loState; k <= hiState && !matched; k++ {
				matched = got == oracle[g][k][probeIdx[i]]
			}
			if !matched {
				t.Fatalf("probe %d (shard %d): decision %+v matches no oracle state in [%d,%d]",
					i, g, got, loState, hiState)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no decisions checked")
	}
	if clean == 0 {
		t.Error("no clean-snapshot decisions observed")
	}
	t.Logf("checked %d decisions (%d clean snapshots, %d overlapping an edit) against %d oracle states per shard",
		checked, clean, checked-clean, mutations+1)

	snap := svc.Snapshot()
	if snap.Reads.Pins == 0 || snap.Reads.Lookups == 0 {
		t.Errorf("snapshot readers not exercised: %+v", snap.Reads)
	}
	if got := snap.RCU.Publishes; got != uint64(len(scripts))*mutations {
		t.Errorf("snapshot publishes = %d, want %d (one per descriptor edit)",
			got, len(scripts)*mutations)
	}
	// Every publish retires exactly one predecessor, which must end up
	// recycled, dropped, or still awaiting its grace period.
	if snap.RCU.Recycled+snap.RCU.Dropped+uint64(snap.RCU.Retired) != snap.RCU.Publishes {
		t.Errorf("retired snapshots unaccounted for: %+v", snap.RCU)
	}
	if len(snap.LatencyNs) == 0 {
		t.Error("latency histogram empty")
	}
}

// TestBlockedMutationDoesNotBlockReaders parks a mutation inside its
// critical section — shard mutex held, shard epoch odd — and checks
// the RCU guarantee: decisions proceed without blocking, every one a
// clean snapshot of the state before the stalled edit, in the mutating
// shard and the others alike. After the mutation completes, a new
// batch pins the published successor and observes the edit.
func TestBlockedMutationDoesNotBlockReaders(t *testing.T) {
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	codeShard := st.ShardOf(1)

	// Hold one mutation open: revoke "code" (segno 1), then park inside
	// the epoch-odd window of its shard with the shard mutex held.
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- st.mutate(1, func(sdw seg.SDW) (seg.SDW, error) {
			sdw.Present = false
			<-release
			return sdw, nil
		})
	}()
	waitFor(t, "mutation to open", func() bool { return st.ShardVersion(codeShard) == 1 })

	// Oracle states 0 (image as built) and 1 (code revoked).
	states := make([][]Decision, 2)
	probes, probeSegno := shardProbes()
	osvc := oracleService(t, st.Shards())
	for k := range states {
		if k == 1 {
			if err := osvc.Store().Revoke(1); err != nil {
				t.Fatalf("oracle Revoke: %v", err)
			}
		}
		if states[k], err = osvc.Submit(context.Background(), probes); err != nil {
			t.Fatalf("oracle state %d: %v", k, err)
		}
	}
	// The probe set must discriminate the two states, or the checks
	// below are vacuous.
	differs := false
	for i := range probes {
		differs = differs || stripDecision(states[0][i]) != stripDecision(states[1][i])
	}
	if !differs {
		t.Fatal("probe set cannot distinguish the bracketed states")
	}

	// With the mutation parked mid-critical-section, a whole batch must
	// complete — lock-free readers never contend with the held shard
	// mutex — and every decision is the pre-edit snapshot at epoch 0.
	ds, err := svc.Submit(context.Background(), probes)
	if err != nil {
		t.Fatalf("Submit during blocked mutation: %v", err)
	}
	for i, d := range ds {
		if d.VersionLo != 0 || d.VersionHi != 0 {
			t.Errorf("probe %d (shard %d): version interval [%d,%d] during blocked mutation, want clean [0,0]",
				i, d.Shard, d.VersionLo, d.VersionHi)
		}
		if got, want := stripDecision(d), stripDecision(states[0][i]); got != want {
			t.Errorf("probe %d: decision %+v, want pre-edit state %+v", i, got, want)
		}
	}
	// The stalled edit also must not block /metrics.
	if got := svc.Snapshot().RCU.Publishes; got != 0 {
		t.Errorf("publishes = %d during blocked mutation, want 0", got)
	}

	// Complete the mutation; the next batch pins the successor snapshot
	// (epoch 2 in the mutated shard) and observes the revocation.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held mutation: %v", err)
	}
	ds, err = svc.Submit(context.Background(), probes)
	if err != nil {
		t.Fatalf("Submit after mutation: %v", err)
	}
	for i, d := range ds {
		wantEpoch := uint64(0)
		if probeSegno[i] == 1 {
			wantEpoch = 2
		}
		if d.VersionLo != wantEpoch || d.VersionHi != wantEpoch {
			t.Errorf("probe %d (shard %d): version interval [%d,%d] after mutation, want [%d,%d]",
				i, d.Shard, d.VersionLo, d.VersionHi, wantEpoch, wantEpoch)
		}
		if got, want := stripDecision(d), stripDecision(states[1][i]); got != want {
			t.Errorf("probe %d: decision %+v, want post-edit state %+v", i, got, want)
		}
	}
}

// TestSubmitIntoZeroAlloc is the hot-path allocation budget: one
// SubmitInto round trip — admit, take a slot, decide, give it back —
// performs zero heap allocations.
// CI runs this as its allocation-regression gate.
func TestSubmitIntoZeroAlloc(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	queries := []Query{{Op: OpAccess, Ring: 4, Segment: "data", Wordno: 5, Kind: core.AccessRead}}
	dst := make([]Decision, len(queries))
	for i := 0; i < 8; i++ { // warm up
		if err := svc.SubmitInto(ctx, queries, dst); err != nil {
			t.Fatalf("warm-up SubmitInto: %v", err)
		}
	}
	if !dst[0].Allowed || dst[0].Shard != 0 {
		t.Fatalf("warm-up decision wrong: %+v", dst[0])
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := svc.SubmitInto(ctx, queries, dst); err != nil {
			t.Fatalf("SubmitInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("SubmitInto allocates %.2f objects per batch; the decision hot path budget is 0", allocs)
	}
	// A denial must stay allocation-free too (the violation string is
	// interned, not formatted).
	denied := []Query{{Op: OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead}}
	for i := 0; i < 8; i++ {
		if err := svc.SubmitInto(ctx, denied, dst); err != nil {
			t.Fatalf("warm-up SubmitInto: %v", err)
		}
	}
	if dst[0].Allowed || dst[0].ViolationKind != core.ViolationReadBracket {
		t.Fatalf("warm-up denial wrong: %+v", dst[0])
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := svc.SubmitInto(ctx, denied, dst); err != nil {
			t.Fatalf("SubmitInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("denied SubmitInto allocates %.2f objects per batch; budget is 0", allocs)
	}
}

// TestSubmitIntoShortDst checks the destination-length guard.
func TestSubmitIntoShortDst(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	queries := make([]Query, 2)
	for i := range queries {
		queries[i] = Query{Op: OpAccess, Ring: 3, Segment: "data", Kind: core.AccessRead}
	}
	if err := svc.SubmitInto(context.Background(), queries, make([]Decision, 1)); err == nil {
		t.Fatal("SubmitInto with short dst: want error, got nil")
	}
}

// TestStoreShardConfig checks shard-count validation and defaulting.
func TestStoreShardConfig(t *testing.T) {
	for _, bad := range []StoreConfig{
		{Shards: 3},
		{Shards: -1},
		{Shards: MaxShards * 2},
	} {
		if _, err := NewStore(bad, testSegments()); err == nil {
			t.Errorf("NewStore(Shards=%d): want error, got nil", bad.Shards)
		}
	}
	st, err := NewStore(StoreConfig{}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if st.Shards() != 8 {
		t.Errorf("default Shards() = %d, want 8", st.Shards())
	}
	if got := st.ShardOf(11); got != 3 {
		t.Errorf("ShardOf(11) = %d, want 3", got)
	}
	one, err := NewStore(StoreConfig{Shards: 1}, testSegments())
	if err != nil {
		t.Fatalf("NewStore(Shards=1): %v", err)
	}
	if one.Shards() != 1 || one.ShardOf(11) != 0 {
		t.Errorf("single-shard store: Shards()=%d ShardOf(11)=%d", one.Shards(), one.ShardOf(11))
	}
}

// TestStoreRejectsInvalidDescriptors pins every descriptor the store
// refuses, when an image is built and when a descriptor is edited. A
// rejected edit publishes nothing: the shard epoch closes even again
// (advanced by 2, as for any edit), the publish count stays put, and
// every decision is unchanged.
func TestStoreRejectsInvalidDescriptors(t *testing.T) {
	tooMany := make([]Segment, MaxSegments+1)
	for i := range tooMany {
		tooMany[i] = Segment{Name: fmt.Sprintf("s%d", i)}
	}
	images := map[string][]Segment{
		"empty name":          {{Size: 1}},
		"duplicate name":      {{Name: "a"}, {Name: "a"}},
		"too many segments":   tooMany,
		"negative size":       {{Name: "a", Size: -1}},
		"size above MaxBound": {{Name: "a", Size: seg.MaxBound + 1}},
		"gates above bound":   {{Name: "a", Size: 4, Gates: 5}},
		"gates above MaxGate": {{Name: "a", Size: seg.MaxBound, Gates: seg.MaxGate + 1}},
		"inverted brackets":   {{Name: "a", Size: 4, Brackets: core.Brackets{R1: 3, R2: 2, R3: 1}}},
		"ring above 7":        {{Name: "a", Size: 4, Brackets: core.Brackets{R1: 0, R2: 0, R3: 8}}},
	}
	for name, defs := range images {
		if _, err := NewStore(StoreConfig{}, defs); err == nil {
			t.Errorf("NewStore(%s): want error, got nil", name)
		}
	}
	// The limits themselves are accepted.
	full := make([]Segment, MaxSegments)
	for i := range full {
		full[i] = Segment{Name: fmt.Sprintf("s%d", i)}
	}
	full[MaxSegments-1] = Segment{Name: "big", Size: seg.MaxBound, Execute: true,
		Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: seg.MaxGate}
	if _, err := NewStore(StoreConfig{}, full); err != nil {
		t.Fatalf("NewStore at the limits: %v", err)
	}

	// Edits, against testSegments plus a maximal segment (segno 3);
	// segno 4 was never defined.
	defs := append(testSegments(), full[MaxSegments-1])
	st, err := NewStore(StoreConfig{}, defs)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	svc, err := New(st, Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	probes, _ := shardProbes()
	probes = append(probes, Query{Op: OpCall, Ring: 4, Segment: "big", Wordno: seg.MaxGate - 1})
	before, err := svc.Submit(context.Background(), probes)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if d := before[len(before)-1]; !d.Allowed || d.Outcome != core.CallDownward.String() {
		t.Fatalf("call to the last gate of big: %+v, want an allowed downward call", d)
	}
	code := core.Brackets{R1: 1, R2: 3, R3: 5}
	edits := []struct {
		name  string
		segno uint32
		edit  func() error
	}{
		{"gates above bound", 1, func() error { return st.SetBrackets(1, true, false, true, code, 33) }},
		{"gates above MaxGate", 3, func() error { return st.SetBrackets(3, false, false, true, code, seg.MaxGate+1) }},
		{"inverted brackets", 0, func() error {
			return st.SetBrackets(0, true, true, false, core.Brackets{R1: 4, R2: 2, R3: 1}, 0)
		}},
		{"ring above 7", 2, func() error {
			return st.SetBrackets(2, true, false, false, core.Brackets{R1: 0, R2: 1, R3: 9}, 0)
		}},
		{"setbrackets beyond MaxSegments", MaxSegments, func() error {
			return st.SetBrackets(MaxSegments, true, false, false, code, 0)
		}},
		{"revoke beyond MaxSegments", MaxSegments + 1, func() error { return st.Revoke(MaxSegments + 1) }},
		{"restore beyond MaxSegments", MaxSegments + 2, func() error { return st.Restore(MaxSegments + 2) }},
		{"setbrackets on absent segment", 4, func() error { return st.SetBrackets(4, true, false, false, code, 0) }},
	}
	for _, e := range edits {
		sh := st.ShardOf(e.segno)
		epoch := st.ShardVersion(sh)
		publishes := st.RCUStats().Publishes
		if err := e.edit(); err == nil {
			t.Errorf("%s: want error, got nil", e.name)
		}
		if got := st.ShardVersion(sh); got != epoch+2 {
			t.Errorf("%s: shard %d epoch %d after rejection, want %d", e.name, sh, got, epoch+2)
		}
		if got := st.RCUStats().Publishes; got != publishes {
			t.Errorf("%s: publishes %d after rejection, want %d", e.name, got, publishes)
		}
		after, err := svc.Submit(context.Background(), probes)
		if err != nil {
			t.Fatalf("%s: Submit: %v", e.name, err)
		}
		for i := range after {
			if after[i] != before[i] {
				t.Errorf("%s: probe %d decided %+v, want %+v", e.name, i, after[i], before[i])
			}
		}
	}
}

// TestMutateUndefinedSegment checks that a mutation naming a segment
// number below MaxSegments that the image never defined is refused as
// an unknown segment: nothing is published, no shootdown fires, and the
// number still decides as a missing segment.
func TestMutateUndefinedSegment(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	st := svc.Store()
	hooks := 0
	st.SetPublishHook(func(int, uint32, uint64) { hooks++ })
	probe := []Query{{Op: OpAccess, Ring: 3, Segno: 100, Kind: core.AccessRead}}
	code := core.Brackets{R1: 1, R2: 3, R3: 5}
	for _, segno := range []uint32{uint32(len(testSegments())), 100, MaxSegments - 1} {
		for _, m := range []Mutation{
			{Op: MutRestore, Segno: segno},
			{Op: MutSetBrackets, Segno: segno, Read: true, Brackets: code},
			{Op: MutRevoke, Segno: segno},
		} {
			_, err := st.Apply(m)
			if want := fmt.Sprintf("unknown segment %d", segno); !errors.Is(err, ErrUnknownSegment) || err.Error() != want {
				t.Errorf("%s segno %d: err = %v, want %q", m.Op, segno, err, want)
			}
		}
	}
	if _, err := st.Apply(Mutation{Op: MutRestore, Segno: MaxSegments}); err == nil || errors.Is(err, ErrUnknownSegment) {
		t.Errorf("restore segno %d: err = %v, want the beyond-the-descriptor-segment error", MaxSegments, err)
	}
	if p := st.RCUStats().Publishes; p != 0 || hooks != 0 {
		t.Errorf("refused mutations published %d snapshots and fired %d shootdowns, want none", p, hooks)
	}
	ds, err := svc.Submit(context.Background(), probe)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if ds[0].ViolationKind != core.ViolationMissingSegment {
		t.Errorf("segno 100 decides %+v, want a missing segment", ds[0])
	}
}

// TestMetricsSnapshot checks the /metrics counters after known traffic:
// a 12-query mixed batch, submitted five times. The read and event
// counters are pinned to exact values: a pin per consulted shard per
// batch, a lookup per descriptor read, and a validate event per read or
// write check (an effring chain's indirect words included; instruction
// fetches, CALL and RETURN record none).
func TestMetricsSnapshot(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	qs := []Query{
		{Op: OpAccess, Ring: 4, Segment: "data", Kind: core.AccessRead},    // allowed
		{Op: OpAccess, Ring: 5, Segment: "data", Kind: core.AccessRead},    // read bracket fault
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},                  // allowed
		{Op: OpReturn, Ring: 3, Segment: "code", EffRing: ring(1)},         // trap
		{Op: OpEffRing, Ring: 1, Chain: []ChainStep{{Ring: 0, Segno: 0}}},  // allowed
		{Op: OpAccess, Ring: 3, Segment: "nonesuch"},                       // error
		{Op: OpAccess, Ring: 2, Segment: "data", Kind: core.AccessWrite},   // allowed
		{Op: OpAccess, Ring: 2, Segment: "code", Kind: core.AccessExecute}, // allowed
		{Op: OpAccess, Ring: 3, Segno: 99, Kind: core.AccessRead},          // missing segment
		{Op: OpEffRing, Ring: 1, Chain: []ChainStep{ // read bracket fault on the indirect word
			{PR: true, Ring: 2}, {Ring: 0, Segno: 2}}},
		{Op: OpEffRing, Ring: 0, Chain: []ChainStep{ // allowed, two shards
			{Ring: 0, Segno: 0}, {Ring: 1, Segno: 1}}},
		{Op: OpCall, Ring: 2, Segment: "code", Wordno: 5, SameSegment: true}, // allowed
	}
	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(context.Background(), qs); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	snap := svc.Snapshot()
	if snap.Workers != 2 || snap.QueueCap != 64 {
		t.Errorf("shape: workers=%d cap=%d", snap.Workers, snap.QueueCap)
	}
	if snap.Batches != 5 || snap.Queries != 60 {
		t.Errorf("batches=%d queries=%d, want 5/60", snap.Batches, snap.Queries)
	}
	if snap.Allowed != 40 || snap.Denied != 15 || snap.Errors != 5 || snap.Trapped != 5 {
		t.Errorf("allowed=%d denied=%d errors=%d trapped=%d, want 40/15/5/5",
			snap.Allowed, snap.Denied, snap.Errors, snap.Trapped)
	}
	if snap.Ops[string(OpAccess)] != 30 || snap.Ops[string(OpCall)] != 10 ||
		snap.Ops[string(OpReturn)] != 5 || snap.Ops[string(OpEffRing)] != 15 {
		t.Errorf("per-op counts wrong: %v", snap.Ops)
	}
	if len(snap.Faults) != 2 || snap.Faults[metricKey(core.ViolationReadBracket.String())] != 10 ||
		snap.Faults[metricKey(core.ViolationMissingSegment.String())] != 5 {
		t.Errorf("faults: %v", snap.Faults)
	}
	// Batches submitted one after another all take the first free slot.
	wantReads := ReaderSnapshot{Pins: 20, Lookups: 60}
	if snap.Reads != wantReads {
		t.Errorf("reads = %+v, want %+v", snap.Reads, wantReads)
	}
	if len(snap.PerWorkerReads) != 2 || snap.PerWorkerReads[0] != wantReads || snap.PerWorkerReads[1] != (ReaderSnapshot{}) {
		t.Errorf("per-worker reads = %+v, want [%+v {}]", snap.PerWorkerReads, wantReads)
	}
	if len(snap.Events) != 1 || snap.Events["validate"] != 40 {
		t.Errorf("events = %v, want map[validate:40]", snap.Events)
	}
	if snap.RCU.Readers != 2 {
		t.Errorf("registered readers = %d, want 2 (one per decision slot)", snap.RCU.Readers)
	}
	if len(snap.LatencyNs) == 0 {
		t.Error("latency histogram empty")
	}
	var latTotal uint64
	for _, b := range snap.LatencyNs {
		latTotal += b.Count
	}
	if latTotal != snap.Batches {
		t.Errorf("latency histogram sums to %d, want %d batches", latTotal, snap.Batches)
	}
}
