package tas

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// runTAS executes one test-and-set among n processes and returns the
// per-process outcomes (0 for crashed/unfinished processes).
func runTAS(t *testing.T, n int, s sched.Scheduler, seed uint64, crash map[int]int) []Outcome {
	t.Helper()
	file := register.NewFile()
	obj, err := New(file, n)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]Outcome, n)
	_, err = harness.RunProgram(func(e core.Env) value.Value {
		o := obj.Invoke(e)
		outcomes[e.PID()] = o
		return value.Value(o)
	}, harness.ObjectConfig{N: n, File: file, Scheduler: s, Seed: seed, CrashAfter: crash})
	if err != nil {
		t.Fatal(err)
	}
	return outcomes
}

func countWinners(outcomes []Outcome) int {
	wins := 0
	for _, o := range outcomes {
		if o == Win {
			wins++
		}
	}
	return wins
}

func TestExactlyOneWinner(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		for _, mk := range []func() sched.Scheduler{
			func() sched.Scheduler { return sched.NewUniformRandom() },
			func() sched.Scheduler { return sched.NewRoundRobin() },
			func() sched.Scheduler { return sched.NewFirstMoverAttack() },
			func() sched.Scheduler { return sched.NewFrontrunner() },
		} {
			for seed := uint64(0); seed < 8; seed++ {
				outcomes := runTAS(t, n, mk(), seed, nil)
				if got := countWinners(outcomes); got != 1 {
					t.Fatalf("n=%d seed=%d: %d winners (%v)", n, seed, got, outcomes)
				}
				for pid, o := range outcomes {
					if o != Win && o != Lose {
						t.Fatalf("n=%d pid=%d outcome %v", n, pid, o)
					}
				}
			}
		}
	}
}

func TestSoloAlwaysWins(t *testing.T) {
	outcomes := runTAS(t, 1, sched.NewRoundRobin(), 1, nil)
	if outcomes[0] != Win {
		t.Fatalf("solo outcome %v", outcomes[0])
	}
}

func TestWinnerDistributionNotDegenerate(t *testing.T) {
	// Under fair random scheduling every process should win sometimes.
	n := 4
	wins := make([]int, n)
	const trials = 120
	for seed := uint64(0); seed < trials; seed++ {
		outcomes := runTAS(t, n, sched.NewUniformRandom(), seed, nil)
		for pid, o := range outcomes {
			if o == Win {
				wins[pid]++
			}
		}
	}
	for pid, w := range wins {
		if w == 0 {
			t.Errorf("pid %d never won in %d trials: %v", pid, trials, wins)
		}
	}
}

func TestCrashTolerance(t *testing.T) {
	// At most one completer wins, and if a full side crashes the other
	// side's survivor still wins by walkover.
	n := 4
	for seed := uint64(0); seed < 20; seed++ {
		crash := map[int]int{0: 3, 1: 5}
		file := register.NewFile()
		obj, err := New(file, n)
		if err != nil {
			t.Fatal(err)
		}
		outcomes := make([]Outcome, n)
		res, err := harness.RunProgram(func(e core.Env) value.Value {
			o := obj.Invoke(e)
			outcomes[e.PID()] = o
			return value.Value(o)
		}, harness.ObjectConfig{
			N: n, File: file, Scheduler: sched.NewUniformRandom(), Seed: seed, CrashAfter: crash,
		})
		if err != nil {
			t.Fatal(err)
		}
		wins := 0
		for pid, o := range outcomes {
			if o == Win {
				if res.Crashed[pid] {
					t.Fatalf("seed %d: crashed pid %d reported Win", seed, pid)
				}
				wins++
			}
		}
		if wins != 1 {
			t.Fatalf("seed %d: %d winners among survivors (%v, crashed %v)", seed, wins, outcomes, res.Crashed)
		}
	}
}

func TestTournamentShape(t *testing.T) {
	file := register.NewFile()
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for n, want := range cases {
		obj, err := New(file, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.Levels(); got != want {
			t.Errorf("n=%d: %d levels, want %d", n, got, want)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(register.NewFile(), 0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Win.String() != "win" || Lose.String() != "lose" || Outcome(9).String() != "outcome(9)" {
		t.Fatal("outcome strings")
	}
}

func TestExactlyOneWinnerStress(t *testing.T) {
	// The tournament inherits the CIL fallback's subtle safety argument;
	// hammer it across many seeds and adversaries.
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewUniformRandom() },
		func() sched.Scheduler { return sched.NewLaggard() },
		func() sched.Scheduler { return sched.NewFirstMoverAttack() },
	} {
		for seed := uint64(0); seed < 300; seed++ {
			outcomes := runTAS(t, 5, mk(), seed, nil)
			if got := countWinners(outcomes); got != 1 {
				t.Fatalf("seed %d: %d winners (%v)", seed, got, outcomes)
			}
		}
	}
}
