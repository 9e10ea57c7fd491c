package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/rings"
)

// checkerRun answers n batches of the stream on an in-process Checker
// and returns the queries and decisions, all checked by the oracle.
func checkerRun(t *testing.T, chk *rings.Checker, o *Oracle, g *Gen, n int) ([][]service.Query, [][]service.Decision) {
	t.Helper()
	var qs [][]service.Query
	var ds [][]service.Decision
	for i := 0; i < n; i++ {
		q := cloneBatch(g.Next())
		d := make([]service.Decision, len(q))
		mark := o.Mark()
		if err := chk.CheckInto(q, d); err != nil {
			t.Fatal(err)
		}
		if bad := o.CheckBatch(mark, q, d); bad > 0 {
			t.Fatalf("batch %d: %d decisions disagree with the oracle: %+v -> %+v", i, bad, q, d)
		}
		qs, ds = append(qs, q), append(ds, d)
	}
	return qs, ds
}

func newChecker(t *testing.T, img *Image) *rings.Checker {
	t.Helper()
	chk, err := rings.NewCheckerWith(rings.CheckerConfig{Workers: workers, Shards: shards}, img.Segs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(chk.Close)
	return chk
}

func TestOracleAgreesWithTheService(t *testing.T) {
	w, _ := findWorkload("lease-churn")
	img := GenImage(2, w.segments)
	chk := newChecker(t, img)
	o := NewOracle(img, shards)
	g := NewGen(img, w.genConfig(2), 3)
	checkerRun(t, chk, o, g, 2000)

	// Edits move the shard epochs the decisions are checked at.
	rng := sm64{s: 9}
	for k := 0; k < 300; k++ {
		segno := uint32(rng.intn(len(img.Segs)))
		v := editView(&rng, o.View(segno))
		o.Begin(segno, v)
		if err := chk.SetBrackets(img.Segs[segno].Name, v.Read, v.Write, v.Execute, v.Brackets, v.GateCount); err != nil {
			t.Fatal(err)
		}
		o.Acked()
		checkerRun(t, chk, o, g, 5)
	}
	if o.Mismatches() != 0 {
		t.Fatalf("%d mismatches", o.Mismatches())
	}
}

func TestOracleCatchesCorruptDecisions(t *testing.T) {
	w, _ := findWorkload("http-json")
	img := GenImage(5, w.segments)
	chk := newChecker(t, img)
	o := NewOracle(img, shards)
	qs, ds := checkerRun(t, chk, o, NewGen(img, w.genConfig(5), 6), 200)

	corruptions := map[string]func(d *service.Decision){
		"allowed": func(d *service.Decision) { d.Allowed = !d.Allowed },
		"violation kind": func(d *service.Decision) {
			d.ViolationKind = (d.ViolationKind + 1) % core.ViolationKind(core.ViolationKindCount)
		},
		"outcome": func(d *service.Decision) {
			if d.Outcome == "" {
				d.Outcome = "downward call"
			} else {
				d.Outcome = ""
			}
		},
		"new ring": func(d *service.Decision) { d.NewRing = (d.NewRing + 1) % core.NumRings },
		"trapped":  func(d *service.Decision) { d.Trapped = !d.Trapped },
		"err":      func(d *service.Decision) { d.Err = "corrupt" },
		"future epoch": func(d *service.Decision) {
			d.VersionLo += 2
			d.VersionHi += 2
		},
		"torn interval": func(d *service.Decision) { d.VersionHi++ },
	}
	for name, corrupt := range corruptions {
		caught, tried := 0, 0
		for i := range qs {
			for k := range qs[i] {
				d := ds[i][k]
				if (name == "future epoch" || name == "torn interval") && d.Shard < 0 {
					continue // no single shard epoch to move
				}
				corrupt(&d)
				tried++
				mark := o.Mark()
				if o.CheckBatch(mark, qs[i][k:k+1], []service.Decision{d}) == 1 {
					caught++
				}
			}
		}
		// A changed violation kind or ring can land on a value equal to
		// the truth only when the field was irrelevant; every other
		// corruption must be caught every time.
		if caught < tried*9/10 || (name != "violation kind" && name != "new ring" && caught != tried) {
			t.Errorf("%s: caught %d of %d corrupt decisions", name, caught, tried)
		}
	}

	// The worker index is not part of the answer.
	d := ds[0][0]
	d.Worker += 7
	if o.CheckBatch(o.Mark(), qs[0][:1], []service.Decision{d}) != 0 {
		t.Error("a decision differing only in its worker was flagged")
	}
}

func TestOracleServesOldEpochs(t *testing.T) {
	// A cached decision may carry an epoch older than the latest edit:
	// the oracle checks it against the state logged at that epoch.
	img := GenImage(8, 64)
	o := NewOracle(img, shards)
	q := service.Query{Op: service.OpAccess, Ring: 0, Segno: 3, Kind: core.AccessRead}
	old := expect(&q, func(uint32) core.SDWView { return img.Views[3] })
	old.Shard = 3 % shards

	v := img.Views[3]
	v.Read = !v.Read
	e := o.Begin(3, v)
	o.Acked()
	now := expect(&q, func(uint32) core.SDWView { return v })
	now.Shard, now.VersionLo, now.VersionHi = 3%shards, e, e

	if o.CheckBatch(o.Mark(), []service.Query{q}, []service.Decision{old}) != 0 {
		t.Error("the epoch-0 answer at epoch 0 was flagged")
	}
	if o.CheckBatch(o.Mark(), []service.Query{q}, []service.Decision{now}) != 0 {
		t.Error("the new answer at the new epoch was flagged")
	}
	swapped := old
	swapped.VersionLo, swapped.VersionHi = e, e
	if old.Allowed != now.Allowed && o.CheckBatch(o.Mark(), []service.Query{q}, []service.Decision{swapped}) != 1 {
		t.Error("the old answer stamped with the new epoch passed")
	}
}
