package main

import "testing"

func TestLadderRungsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a sample down every rung, over loopback")
	}
	w, _ := findWorkload("lease-churn")
	lad, err := runLadder(w, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lad.mismatches != 0 {
		t.Fatalf("%d of %d batches disagree between rungs", lad.mismatches, lad.batches)
	}
	if lad.leaseHits[0] > 0.1 || lad.leaseHits[1] != 1 {
		t.Errorf("lease rungs saw hit ratios %.3f (miss rung) and %.3f (hit rung)", lad.leaseHits[0], lad.leaseHits[1])
	}
	for l, ns := range lad.ns {
		if ns <= 0 {
			t.Errorf("rung %s: %.1f ns per batch", layerNames[l], ns)
		}
	}
}
