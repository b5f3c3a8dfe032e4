package modcon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// sequenceGolden is the sha256 of (Agreed, Outputs, Work, TotalWork,
// Crashed) over the grid of TestSolveSequenceGolden, recorded when
// sequences still ran on their own simulator call. Moving them onto exec
// sessions must not move it.
const sequenceGolden = "d5cc3dea856021b6c52f898457ec9afbc455462494c1b66954878d2cbb41ac46"

// TestSolveSequenceGolden pins SolveSequence's executions over n ∈ {2, 3,
// 4}, m ∈ {2, 5}, 1 or 4 slots, three adversaries, seeds 0–5, and three
// fault configurations (none, a legacy CrashAfter, a crash plan with lost
// coins): 648 sequences.
func TestSolveSequenceGolden(t *testing.T) {
	plan, err := ParseFaults("crash:pid=1,after=7;losecoin:p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	scheds := []func() Scheduler{
		func() Scheduler { return NewUniformRandom() },
		func() Scheduler { return NewFirstMoverAttack() },
		func() Scheduler { return NewRoundRobin() },
	}
	runs := []RunConfig{{}, {CrashAfter: map[int]int{0: 5}}, {Faults: plan}}
	h := sha256.New()
	cases := 0
	for _, n := range []int{2, 3, 4} {
		for _, m := range []int{2, 5} {
			cons, err := New(n, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, slots := range []int{1, 4} {
				for si, mk := range scheds {
					for seed := uint64(0); seed < 6; seed++ {
						for ri, rc := range runs {
							proposals := make([][]Value, slots)
							for s := range proposals {
								proposals[s] = make([]Value, n)
								for pid := range proposals[s] {
									proposals[s][pid] = Value((pid*3 + s + int(seed)) % m)
								}
							}
							out, err := cons.SolveSequence(proposals, mk(), seed, rc)
							if err != nil {
								t.Fatalf("n=%d m=%d slots=%d sched %d seed %d run %d: %v", n, m, slots, si, seed, ri, err)
							}
							fmt.Fprintf(h, "%v|%v|%v|%d|%v\n", out.Agreed, out.Outputs, out.Work, out.TotalWork, out.Crashed)
							cases++
						}
					}
				}
			}
		}
	}
	if cases != 648 {
		t.Fatalf("ran %d sequences, want 648", cases)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sequenceGolden {
		t.Errorf("sequence digest %s, want %s", got, sequenceGolden)
	}
}
