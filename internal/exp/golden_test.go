package exp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden tables from the current code")

// TestExperimentGolden pins E1 (object sweeps) and E6 (protocol sweeps) at
// Trials 4, Seed 3, Workers 2 against tables recorded under testdata, so a
// change that moves every worker count alike shows here, where the
// worker-count determinism gates compare one revision with itself. The
// tables hold fitted-shape notes, whose last digit FMA may change, so the
// test runs on amd64 only. Regenerate with go test -run
// TestExperimentGolden -update, and only when a change is meant to move
// the tables.
func TestExperimentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden tables carry floating-point fits recorded on amd64")
	}
	for _, e := range []Experiment{{ID: "E1", Run: E1ConciliatorAgreement}, {ID: "E6", Run: E6BinaryConsensus}} {
		t.Run(e.ID, func(t *testing.T) {
			got, err := json.MarshalIndent(e.Run(Config{Trials: 4, Seed: 3, Workers: 2}), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_"+e.ID+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s table differs from %s:\n%s", e.ID, path, got)
			}
		})
	}
}
