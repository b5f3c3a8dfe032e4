package modcon

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/modular-consensus/modcon/internal/sched"
)

// panicAfter is an adversary that gives up with a panic after left picks,
// leaving the run's registers half written.
type panicAfter struct {
	Scheduler
	left int
}

func (p *panicAfter) Next(v *sched.View) int {
	if p.left == 0 {
		panic("panicAfter: scheduler gave up")
	}
	p.left--
	return p.Scheduler.Next(v)
}

// solveRecovered runs Solve and reports whether it panicked.
func solveRecovered(c *Consensus, inputs []Value, s Scheduler, seed uint64, rc RunConfig) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	_, _ = c.Solve(inputs, s, seed, rc)
	return false
}

// TestSolveReuseMatchesFreshSpec: Solve reuses the instances earlier calls
// built, so a call's outcome must not depend on what ran before it on the
// same spec. Across the spec options and run configurations, successful
// Solves interleaved with a step-limit failure, a cancelled context and a
// panicking scheduler must each equal a Solve on a freshly constructed spec.
func TestSolveReuseMatchesFreshSpec(t *testing.T) {
	const n = 4
	specs := []struct {
		name string
		m    int
		opts []Option
	}{
		{"auto-m2", 2, nil},
		{"auto-m5", 5, nil},
		{"binary", 2, []Option{WithScheme(SchemeBinary)}},
		{"pool", 5, []Option{WithScheme(SchemePool)}},
		{"bitvector", 5, []Option{WithScheme(SchemeBitVector)}},
		{"collect-m2", 2, []Option{WithScheme(SchemeCollect)}},
		{"collect-m5", 5, []Option{WithScheme(SchemeCollect)}},
		{"constant-rate", 2, []Option{WithConciliator(ConciliatorConstantRate)}},
		{"shared-coin", 2, []Option{WithConciliator(ConciliatorSharedCoin)}},
		{"write-detection", 5, []Option{WithWriteDetection(true)}},
		{"stages-fallback", 5, []Option{WithStages(2), WithFallback(true)}},
	}
	plan := Faults(CrashFault(0, 5), LoseCoinFault(AllProcs, 1, 4))
	runs := []struct {
		name string
		rc   RunConfig
	}{
		{"atomic", RunConfig{}},
		{"regular", RunConfig{Registers: Regular}},
		{"interposed", RunConfig{Registers: Interposed}},
		{"faults", RunConfig{Faults: plan}},
		{"traced-cheap", RunConfig{Traced: true, CheapCollect: true}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for si, spec := range specs {
		for ri, run := range runs {
			t.Run(spec.name+"/"+run.name, func(t *testing.T) {
				newSched := func() Scheduler { return NewUniformRandom() }
				if (si+ri)%2 == 1 {
					newSched = func() Scheduler { return NewFirstMoverAttack() }
				}
				c, err := New(n, spec.m, spec.opts...)
				if err != nil {
					t.Fatal(err)
				}
				solveMatches := func(seed uint64) {
					t.Helper()
					inputs := mixedInputs(n, spec.m, int(seed))
					got, err := c.Solve(inputs, newSched(), seed, run.rc)
					if err != nil {
						t.Fatalf("seed %d: reused spec: %v", seed, err)
					}
					fresh, err := New(n, spec.m, spec.opts...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Solve(inputs, newSched(), seed, run.rc)
					if err != nil {
						t.Fatalf("seed %d: fresh spec: %v", seed, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d: reused spec %+v, fresh spec %+v", seed, got, want)
					}
				}
				limited, withCtx := run.rc, run.rc
				limited.MaxSteps = 1
				withCtx.Context = cancelled

				solveMatches(1)
				if _, err := c.Solve(mixedInputs(n, spec.m, 0), newSched(), 2, limited); err == nil {
					t.Error("MaxSteps 1: Solve returned no error")
				}
				solveMatches(3)
				if _, err := c.Solve(mixedInputs(n, spec.m, 1), newSched(), 4, withCtx); err == nil {
					t.Error("cancelled context: Solve returned no error")
				}
				solveMatches(5)
				if !solveRecovered(c, mixedInputs(n, spec.m, 2), &panicAfter{Scheduler: newSched(), left: 3}, 6, run.rc) {
					t.Error("panicking scheduler: Solve did not panic")
				}
				solveMatches(7)
			})
		}
	}
}

// TestSolveConcurrentCalls: goroutines sharing one spec each take their own
// instance, so every outcome equals the same Solve run sequentially.
func TestSolveConcurrentCalls(t *testing.T) {
	const n, goroutines, perG = 8, 4, 6
	c, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Registers: Regular}
	solve := func(i int) *Outcome {
		out, err := c.Solve(mixedInputs(n, 2, i), NewFirstMoverAttack(), uint64(i), rc)
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		return out
	}
	want := make([]*Outcome, goroutines*perG)
	for i := range want {
		want[i] = solve(i)
	}
	got := make([]*Outcome, len(want))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(got); i += goroutines {
				got[i] = solve(i)
			}
		}(g)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("call %d: concurrent %+v, sequential %+v", i, got[i], want[i])
		}
	}
}

// TestSolveAllocs: a warm Solve reuses its built instance, so it pays for
// one session and the outcome, not for building 512 stages (about 4,200
// allocations at n=8).
func TestSolveAllocs(t *testing.T) {
	const n = 8
	c, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	solve := func() {
		seed++
		if _, err := c.Solve(mixedInputs(n, 2, int(seed)), NewFirstMoverAttack(), seed); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm up: build the instance
	if allocs := testing.AllocsPerRun(20, solve); allocs >= 300 {
		t.Errorf("warm Solve: %v allocs, want < 300", allocs)
	}
}
