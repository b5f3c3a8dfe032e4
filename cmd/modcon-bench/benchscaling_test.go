package main

import (
	"encoding/json"
	"testing"

	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
)

// TestSweepTallyFoldsEveryTrial pins the fold that the scaling, shard and
// workload digests hash: the tally's histograms are the sweep's own, one
// observation per trial, and its steps histogram equals one rebuilt from
// the per-trial demands it records.
func TestSweepTallyFoldsEveryTrial(t *testing.T) {
	const trials = 24
	tally := sweepTally{demands: make([]int64, trials)}
	if err := tally.run(harness.Sweep{Trials: trials, Workers: 2, Seed: 5}, register.Atomic); err != nil {
		t.Fatal(err)
	}
	if tally.steps.N() != trials || tally.work.N() != trials {
		t.Fatalf("histograms hold %d and %d trials, want %d", tally.steps.N(), tally.work.N(), trials)
	}
	if tally.decided != trials {
		t.Fatalf("%d of %d trials decided", tally.decided, trials)
	}
	if tally.work.Max() > tally.steps.Max() || tally.work.Sum() > tally.steps.Sum() {
		t.Fatalf("individual work %s against total work %s", &tally.work, &tally.steps)
	}
	var want obs.Hist
	for _, d := range tally.demands {
		want.Add(d)
	}
	gj, err := json.Marshal(&tally.steps)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Fatalf("steps histogram differs from the demands:\n%s\n%s", gj, wj)
	}
}
