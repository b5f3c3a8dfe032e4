package advsearch

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// testTarget is a small binary consensus cell (impatient conciliator +
// binary ratifier) with mixed inputs varying per trial.
func testTarget(n int) Target {
	return Target{
		Name:     "binary-consensus",
		N:        n,
		MaxSteps: 1 << 16,
		Build: func() (*core.Protocol, *register.File) {
			file := register.NewFile()
			proto, err := recipe.Spec{N: n, M: 2, FastPath: true}.Build(file)
			if err != nil {
				panic(err)
			}
			return proto, file
		},
		Inputs: func(t harness.Trial) []value.Value {
			in := make([]value.Value, n)
			for i := range in {
				in[i] = value.Value((i + t.Index) % 2)
			}
			return in
		},
	}
}

// TestGeneratorProducesValidConfigs: every random draw and every mutation,
// at every power class, yields a config that validates, declares exactly
// the searched class, and round-trips through the text codec.
func TestGeneratorProducesValidConfigs(t *testing.T) {
	for p := sched.Oblivious; p <= sched.Adaptive; p++ {
		g := newGenerator(xrand.New(7), p, 4)
		cfg := g.random()
		for i := 0; i < 300; i++ {
			if cfg.Power != p {
				t.Fatalf("%s draw %d: declared power %s", p, i, cfg.Power)
			}
			if _, err := sched.NewParametric(cfg); err != nil {
				t.Fatalf("%s draw %d: invalid config %q: %v", p, i, cfg.String(), err)
			}
			text := cfg.String()
			back, err := sched.ParseParametric(text)
			if err != nil {
				t.Fatalf("%s draw %d: re-parse %q: %v", p, i, text, err)
			}
			if back.String() != text {
				t.Fatalf("%s draw %d: round-trip %q != %q", p, i, back.String(), text)
			}
			if i%2 == 0 {
				cfg = g.mutate(cfg)
			} else {
				cfg = g.random()
			}
		}
	}
}

// TestMutateLeavesParentIntact: mutation must deep-copy; evolving from a
// parent repeatedly would otherwise corrupt the parent's rule slice.
func TestMutateLeavesParentIntact(t *testing.T) {
	g := newGenerator(xrand.New(3), sched.Adaptive, 4)
	parent := g.random()
	text := parent.String()
	for i := 0; i < 100; i++ {
		_ = g.mutate(parent)
	}
	if parent.String() != text {
		t.Fatalf("parent mutated in place: %q -> %q", text, parent.String())
	}
}

// TestSearchDeterministicAcrossWorkers: the report — winner config, every
// score, every outcome count — must be byte-identical at any worker count.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	target := testTarget(4)
	base := Options{
		Algo: AlgoEvolve, Power: sched.ValueOblivious,
		Budget: 48, TrialsPerEval: 8, Seed: 11,
	}
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Workers = workers
		rep, err := Search(target, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Winner == nil {
			t.Fatalf("workers=%d: no winner", workers)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatalf("reports differ across worker counts:\n%s\n%s", blobs[0], blobs[1])
	}
}

// TestSearchBudgetAndWinner: random search spends exactly
// ⌊budget/trials⌋ evaluations, never overdraws, and the winner is the
// best-scoring evaluation with a replayable config.
func TestSearchBudgetAndWinner(t *testing.T) {
	rep, err := Search(testTarget(4), Options{
		Algo: AlgoRandom, Power: sched.LocationOblivious,
		Budget: 40, TrialsPerEval: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrialsSpent != 40 || rep.Evaluations != 5 {
		t.Fatalf("spent %d trials over %d evals, want 40 over 5", rep.TrialsSpent, rep.Evaluations)
	}
	if rep.Winner == nil {
		t.Fatal("no winner")
	}
	if _, err := sched.NewParametricFromString(rep.Winner.Config); err != nil {
		t.Fatalf("winner config %q does not replay: %v", rep.Winner.Config, err)
	}
	for _, ev := range rep.Evals {
		if !ev.Quarantined && ev.Score > rep.Winner.Score {
			t.Fatalf("eval %d scores %v above winner's %v", ev.Index, ev.Score, rep.Winner.Score)
		}
	}
}

// TestSearchAlgos: each algorithm terminates within budget and produces a
// healthy winner on a benign target.
func TestSearchAlgos(t *testing.T) {
	for _, algo := range []Algo{AlgoRandom, AlgoEvolve, AlgoHalving} {
		rep, err := Search(testTarget(4), Options{
			Algo: algo, Power: sched.ValueOblivious,
			Budget: 64, TrialsPerEval: 4, Seed: 9,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rep.TrialsSpent > rep.Budget {
			t.Fatalf("%s: overdrew budget (%d > %d)", algo, rep.TrialsSpent, rep.Budget)
		}
		if rep.Winner == nil || rep.Winner.Quarantined {
			t.Fatalf("%s: no healthy winner", algo)
		}
		if rep.Evaluations != len(rep.Evals) {
			t.Fatalf("%s: evaluation count mismatch", algo)
		}
	}
}

// panicSched panics on its first scheduling decision.
type panicSched struct{}

func (panicSched) Next(v *sched.View) int { panic("synthetic candidate panic") }
func (panicSched) Seed(src *xrand.Source) {}
func (panicSched) Name() string           { return "panic-sched" }
func (panicSched) MinPower() sched.Power  { return sched.Oblivious }

// stallSched never returns from Next — the livelocked candidate the
// watchdog must kill.
type stallSched struct{}

func (stallSched) Next(v *sched.View) int {
	select {}
}
func (stallSched) Seed(src *xrand.Source) {}
func (stallSched) Name() string           { return "stall-sched" }
func (stallSched) MinPower() sched.Power  { return sched.Oblivious }

// TestSearchQuarantinesDegradedCandidates: a search whose candidate stream
// includes a panicking scheduler, an unbuildable one, and a stalling one
// completes within budget with all three quarantined and a healthy winner
// from the remaining candidates.
func TestSearchQuarantinesDegradedCandidates(t *testing.T) {
	// The seam is called from worker goroutines too (one factory call per
	// pooled session), so the bookkeeping needs a lock.
	var mu sync.Mutex
	seen := map[string]int{}
	opts := Options{
		Algo: AlgoRandom, Power: sched.ValueOblivious,
		Budget: 12, TrialsPerEval: 2, Seed: 21,
		Deadline: 100 * time.Millisecond,
		NewScheduler: func(config string) (sched.Scheduler, error) {
			mu.Lock()
			defer mu.Unlock()
			if _, ok := seen[config]; !ok {
				seen[config] = len(seen)
			}
			switch seen[config] {
			case 0:
				return panicSched{}, nil
			case 1:
				return nil, errors.New("synthetic unbuildable candidate")
			case 2:
				return stallSched{}, nil
			default:
				return sched.NewParametricFromString(config)
			}
		},
	}
	rep, err := Search(testTarget(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) < 3 {
		t.Fatalf("quarantined %d candidates, want >= 3:\n%+v", len(rep.Quarantined), rep.Quarantined)
	}
	for _, q := range rep.Quarantined {
		if q.Reason == "" {
			t.Fatalf("quarantined eval %d has no reason", q.Index)
		}
	}
	if rep.Winner == nil || rep.Winner.Quarantined {
		t.Fatal("degraded candidates poisoned the winner")
	}
	if rep.TrialsSpent > rep.Budget {
		t.Fatalf("overdrew budget: %d > %d", rep.TrialsSpent, rep.Budget)
	}
}

// TestEvaluateSchedulerBaseline: fixed catalog adversaries evaluate on the
// same footing as searched candidates.
func TestEvaluateSchedulerBaseline(t *testing.T) {
	opts := Options{Power: sched.ValueOblivious, Budget: 16, TrialsPerEval: 16, Seed: 5}
	ev := EvaluateScheduler(testTarget(4), opts, "round-robin",
		func() (sched.Scheduler, error) { return sched.NewRoundRobin(), nil })
	if ev.Quarantined {
		t.Fatalf("baseline quarantined: %s", ev.Reason)
	}
	if ev.Config != "round-robin" || ev.Trials != 16 || ev.Score <= 0 {
		t.Fatalf("baseline eval off: %+v", ev)
	}
}

// TestSearchValidation: invalid inputs are errors, not quarantines.
func TestSearchValidation(t *testing.T) {
	target := testTarget(4)
	cases := []Options{
		{Power: sched.Power(99), Budget: 32},
		{Power: sched.Adaptive, Budget: 0},
		{Power: sched.Adaptive, Budget: 4, TrialsPerEval: 8},
		{Power: sched.Adaptive, Budget: 32, Algo: "annealing"},
		{Power: sched.Adaptive, Budget: 32, Objective: "latency"},
	}
	for i, opts := range cases {
		if _, err := Search(target, opts); err == nil {
			t.Errorf("case %d: no error for %+v", i, opts)
		}
	}
	if _, err := Search(Target{}, Options{Power: sched.Adaptive, Budget: 32}); err == nil ||
		!strings.Contains(err.Error(), "Build") {
		t.Errorf("target without Build: err = %v", err)
	}
}
