package service

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// TestReaderPinsSnapshotAcrossMutationBurst is the grace-period test:
// a reader pins a shard snapshot and keeps it pinned while a mutation
// burst republishes the shard many times over. The pinned reader's
// decisions must stay bit-identical to its snapshot's (epoch-0) state
// throughout — and the store must not recycle a single buffer while
// the announcement is live, overflowing its bounded retired list to
// the garbage collector instead. Run under -race this is also the
// reclamation-safety test: a buffer reused before the reader moved on
// would be a write to memory the reader goroutine is still reading.
func TestReaderPinsSnapshotAcrossMutationBurst(t *testing.T) {
	const perScript = 20 // mutations per segment script; 3 scripts
	st, err := NewStore(StoreConfig{Shards: 1}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	rd := st.newReader()
	defer st.releaseReader(rd)
	u := readerMMU(rd)

	probes, _ := shardProbes()
	pre := make([]Decision, len(probes))
	for i := range probes {
		evalQuery(st, rd, u, &probes[i], &pre[i])
		if pre[i].VersionLo != 0 || pre[i].VersionHi != 0 {
			t.Fatalf("probe %d: pinned epoch interval [%d,%d], want [0,0]",
				i, pre[i].VersionLo, pre[i].VersionHi)
		}
	}

	// Burst phase: the reader goroutine re-decides continuously from its
	// pinned snapshot while this goroutine streams every script's edits
	// through the publish path.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range probes {
				var d Decision
				evalQuery(st, rd, u, &probes[i], &d)
				if d.VersionLo != 0 || d.VersionHi != 0 || stripDecision(d) != stripDecision(pre[i]) {
					t.Errorf("probe %d: pinned decision drifted mid-burst: %+v (interval [%d,%d])",
						i, stripDecision(d), d.VersionLo, d.VersionHi)
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		for _, m := range shardScript(uint32(g), perScript) {
			if err := m(st); err != nil {
				t.Errorf("mutation: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// With the announcement live at epoch 0, no retired snapshot ever
	// passes its grace period: nothing recycled, nothing reused, the
	// bounded retired list full and the overflow dropped.
	const burst = 3 * perScript
	s := st.RCUStats()
	if s.Publishes != burst {
		t.Fatalf("publishes = %d, want %d", s.Publishes, burst)
	}
	if s.Recycled != 0 || s.Reused != 0 || s.Free != 0 {
		t.Errorf("buffers recycled under a live pin: %+v", s)
	}
	if s.Retired != retiredCap || s.Dropped != burst-retiredCap {
		t.Errorf("retired list %d / dropped %d, want %d / %d: %+v",
			s.Retired, s.Dropped, retiredCap, burst-retiredCap, s)
	}

	// Unpin and mutate once more: every surviving retired snapshot is
	// past its grace period, so the free list fills (and its overflow is
	// dropped).
	rd.unpin()
	if err := st.SetBrackets(0, true, true, false, testSegments()[0].Brackets, 0); err != nil {
		t.Fatalf("post-unpin mutation: %v", err)
	}
	s = st.RCUStats()
	if s.Retired != 0 || s.Recycled != freeListCap || s.Free != freeListCap {
		t.Errorf("reclamation after unpin: retired=%d recycled=%d free=%d, want 0/%d/%d",
			s.Retired, s.Recycled, s.Free, freeListCap, freeListCap)
	}

	// The next publish reuses a reclaimed buffer instead of allocating.
	if err := st.Revoke(1); err != nil {
		t.Fatalf("reuse mutation: %v", err)
	}
	if s = st.RCUStats(); s.Reused == 0 {
		t.Errorf("no buffer reuse after reclamation: %+v", s)
	}

	// The reader now pins the latest snapshot and sees every edit: the
	// "code" probe hits the revoked descriptor.
	var d Decision
	evalQuery(st, rd, u, &probes[4], &d)
	if want := st.ShardVersion(0); d.VersionLo != want || d.VersionHi != want {
		t.Errorf("fresh pin interval [%d,%d], want [%d,%d]", d.VersionLo, d.VersionHi, want, want)
	}
	if d.Allowed || d.ViolationKind != core.ViolationMissingSegment {
		t.Errorf("revoked segment still decides %+v through fresh snapshot", d)
	}
}

// TestReaderRegistration checks reader bookkeeping: registration is
// copy-on-write, release is idempotent, and a released reader no
// longer holds up reclamation.
func TestReaderRegistration(t *testing.T) {
	st, err := NewStore(StoreConfig{Shards: 1}, testSegments())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	a, b := st.newReader(), st.newReader()
	if got := st.RCUStats().Readers; got != 2 {
		t.Fatalf("registered readers = %d, want 2", got)
	}

	// Pin through a, retire a snapshot, and check a's announcement
	// blocks reclamation while b's idle slots do not.
	if _, err := a.LookupSDW(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Revoke(0); err != nil {
		t.Fatal(err)
	}
	if s := st.RCUStats(); s.Retired != 1 || s.Recycled != 0 {
		t.Errorf("live pin did not hold the retired snapshot: %+v", s)
	}

	// Releasing a (even without unpinning) unblocks the next reclaim.
	st.releaseReader(a)
	st.releaseReader(a) // idempotent
	if got := st.RCUStats().Readers; got != 1 {
		t.Fatalf("registered readers after release = %d, want 1", got)
	}
	if err := st.Restore(0); err != nil {
		t.Fatal(err)
	}
	if s := st.RCUStats(); s.Recycled == 0 {
		t.Errorf("released reader still holds up reclamation: %+v", s)
	}
	st.releaseReader(b)
	if got := st.RCUStats().Readers; got != 0 {
		t.Fatalf("registered readers after both releases = %d, want 0", got)
	}
}
