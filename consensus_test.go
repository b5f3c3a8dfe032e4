package modcon

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/check"
)

func portfolio() []func() Scheduler {
	return []func() Scheduler{
		func() Scheduler { return NewRoundRobin() },
		func() Scheduler { return NewUniformRandom() },
		func() Scheduler { return NewLaggard() },
		func() Scheduler { return NewFrontrunner() },
		func() Scheduler { return NewFirstMoverAttack() },
		func() Scheduler { return NewEagerWriteAttack() },
		func() Scheduler { return NewSplitVote() },
	}
}

func mixedInputs(n, m int, shift int) []Value {
	in := make([]Value, n)
	for i := range in {
		in[i] = Value((i + shift) % m)
	}
	return in
}

func TestBinaryConsensusAcrossAdversaries(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		cons, err := NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		for ai, mk := range portfolio() {
			for seed := uint64(0); seed < 15; seed++ {
				inputs := mixedInputs(n, 2, int(seed))
				out, err := cons.Solve(inputs, mk(), seed)
				if err != nil {
					t.Fatalf("n=%d adv=%d seed=%d: %v", n, ai, seed, err)
				}
				for pid, d := range out.Decided {
					if !d {
						t.Fatalf("n=%d adv=%d seed=%d: pid %d undecided", n, ai, seed, pid)
					}
				}
			}
		}
	}
}

func TestMValuedConsensus(t *testing.T) {
	for _, m := range []int{3, 5, 16} {
		n := 6
		cons, err := New(n, m)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 20; seed++ {
			inputs := mixedInputs(n, m, int(seed))
			out, err := cons.Solve(inputs, NewUniformRandom(), seed)
			if err != nil {
				t.Fatalf("m=%d seed=%d: %v", m, seed, err)
			}
			if out.Value.IsNone() {
				t.Fatalf("m=%d seed=%d: no agreed value", m, seed)
			}
		}
	}
}

func TestSchemes(t *testing.T) {
	n, m := 5, 4
	for _, s := range []RatifierScheme{SchemePool, SchemeBitVector} {
		cons, err := New(n, m, WithScheme(s))
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 10; seed++ {
			if _, err := cons.Solve(mixedInputs(n, m, 1), NewUniformRandom(), seed); err != nil {
				t.Fatalf("scheme %d seed %d: %v", s, seed, err)
			}
		}
	}
	// Collect scheme with cheap collects.
	cons, err := New(n, m, WithScheme(SchemeCollect))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		if _, err := cons.Solve(mixedInputs(n, m, 1), NewUniformRandom(), seed,
			RunConfig{CheapCollect: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Binary scheme rejects m > 2.
	if _, err := New(3, 3, WithScheme(SchemeBinary)); err == nil {
		t.Fatal("binary scheme accepted m=3")
	}
}

func TestFastPathSameInputs(t *testing.T) {
	// §4.1.1: when all inputs agree, the fast path decides in R₋₁ and R₀;
	// no conciliator ever runs, so per-process work is bounded by two
	// ratifier traversals (8 ops binary) regardless of n.
	for _, n := range []int{2, 8, 64} {
		cons, err := NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 10; seed++ {
			out, err := cons.Solve([]Value{1}, NewUniformRandom(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if out.Value != 1 {
				t.Fatalf("agreed on %s", out.Value)
			}
			for pid, st := range out.Stage {
				if st != 0 {
					t.Fatalf("n=%d pid %d decided at stage %d, want fast path", n, pid, st)
				}
			}
			if out.MaxWork() > 8 {
				t.Fatalf("n=%d: fast-path individual work %d > 8", n, out.MaxWork())
			}
		}
	}
}

func TestSoloProcessFastPath(t *testing.T) {
	// A process running alone decides via the fast path with O(1) work.
	cons, err := NewBinary(8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.Solve(mixedInputs(8, 2, 0), NewFrontrunner(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage[0] != 0 {
		t.Fatalf("frontrunner decided at stage %d, want 0", out.Stage[0])
	}
}

func TestIndividualWorkLogarithmic(t *testing.T) {
	// Headline: O(log n) expected individual work. Check that the mean
	// individual work grows like c·lg n, not linearly: compare against an
	// explicit c·lg n + c' envelope across a 16x range of n.
	const trials = 50
	for _, n := range []int{8, 32, 128} {
		cons, err := NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for seed := uint64(0); seed < trials; seed++ {
			out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewFirstMoverAttack(), seed)
			if err != nil {
				t.Fatal(err)
			}
			sum += out.MaxWork()
		}
		mean := float64(sum) / trials
		envelope := 10*math.Log2(float64(n)) + 40
		if mean > envelope {
			t.Errorf("n=%d: mean individual work %.1f exceeds envelope %.1f", n, mean, envelope)
		}
	}
}

func TestTotalWorkLinearBinary(t *testing.T) {
	// Headline: O(n) expected total work for binary consensus.
	const trials = 40
	for _, n := range []int{8, 32, 128} {
		cons, err := NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for seed := uint64(0); seed < trials; seed++ {
			out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewFirstMoverAttack(), seed)
			if err != nil {
				t.Fatal(err)
			}
			sum += out.TotalWork
		}
		mean := float64(sum) / trials
		if mean > 30*float64(n) {
			t.Errorf("n=%d: mean total work %.1f not linear (>30n)", n, mean)
		}
	}
}

func TestFallbackConstruction(t *testing.T) {
	// Stages=0 (no conciliator/ratifier stages beyond fast path is not
	// allowed without fallback... use explicit stage starvation): with 0
	// stages and a fallback, mixed inputs must be decided by K.
	cons, err := NewBinary(4, WithFastPath(false), WithStages(1), WithFallback(true),
		WithConciliator(ConciliatorNone))
	if err != nil {
		t.Fatal(err)
	}
	fellBack := 0
	for seed := uint64(0); seed < 20; seed++ {
		out, err := cons.Solve(mixedInputs(4, 2, int(seed)), NewLaggard(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for pid := range out.FellBack {
			if out.FellBack[pid] {
				fellBack++
			}
		}
	}
	if fellBack == 0 {
		t.Error("ratifier-only + lockstep never reached the fallback")
	}
}

func TestRatifierOnlyNeedsSchedulingHelp(t *testing.T) {
	// §4.2: the ratifier-only protocol R terminates under a priority
	// scheduler and under a noisy scheduler; under lockstep it starves
	// (bounded by Stages, falls off the chain).
	n := 4
	cons, err := NewBinary(n, WithConciliator(ConciliatorNone), WithStages(64), WithFastPath(false))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewPriority(nil), seed)
		if err != nil {
			t.Fatalf("priority seed %d: %v", seed, err)
		}
		for pid, d := range out.Decided {
			if !d {
				t.Fatalf("priority seed %d: pid %d undecided", seed, pid)
			}
		}
		// The highest-priority process races through alone: stage ≤ 2.
		if out.Stage[0] > 2 {
			t.Errorf("priority: pid 0 decided at stage %d", out.Stage[0])
		}
	}
	for seed := uint64(0); seed < 10; seed++ {
		out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewNoisy(0.4), seed)
		if err != nil {
			t.Fatalf("noisy seed %d: %v", seed, err)
		}
		for pid, d := range out.Decided {
			if !d {
				t.Fatalf("noisy seed %d: pid %d undecided", seed, pid)
			}
		}
	}
}

func TestSharedCoinConciliatorConsensus(t *testing.T) {
	n := 4
	cons, err := NewBinary(n, WithConciliator(ConciliatorSharedCoin), WithCoinThreshold(16))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 15; seed++ {
		out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewUniformRandom(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if out.Value != 0 && out.Value != 1 {
			t.Fatalf("agreed on %s", out.Value)
		}
	}
}

func TestConstantRateBaselineConsensus(t *testing.T) {
	n := 8
	cons, err := NewBinary(n, WithConciliator(ConciliatorConstantRate))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		if _, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewUniformRandom(), seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashTolerance(t *testing.T) {
	// Wait-freedom: up to n-1 crashes cannot block survivors.
	n := 5
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 20; seed++ {
		crash := map[int]int{0: 2, 1: 5, 2: 9, 3: 13}
		out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewUniformRandom(), seed,
			RunConfig{CrashAfter: crash})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Decided[4] {
			t.Fatalf("seed %d: survivor undecided", seed)
		}
	}
}

func TestObjectLevelPropertiesOnTraces(t *testing.T) {
	// Every object in the chain must satisfy validity/coherence/acceptance
	// on real traces.
	n := 6
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 20; seed++ {
		out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewUniformRandom(), seed,
			RunConfig{Traced: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Objects(out.Trace, "R"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSolveInputValidation(t *testing.T) {
	cons, err := NewBinary(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, inputs := range [][]Value{{0, 1}, {None, 0, 1}, {0, 1, 2}} {
		if _, err := cons.Solve(inputs, NewRoundRobin(), 1); err == nil {
			t.Errorf("inputs %v accepted", inputs)
		}
	}
	if _, err := cons.Solve([]Value{0, 1, 1}, NewRoundRobin(), 1, RunConfig{}, RunConfig{}); err == nil {
		t.Error("two RunConfigs accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, m int
		opts []Option
	}{
		{0, 2, nil},
		{2, 1, nil},
		{2, 3, []Option{WithScheme(SchemeBinary)}},
		{2, 3, []Option{WithConciliator(ConciliatorSharedCoin)}},
		{2, 2, []Option{WithConciliator(ConciliatorNone), WithFastPath(true)}},
		{2, 2, []Option{WithStages(-1)}},
	}
	for i, tt := range cases {
		if _, err := New(tt.n, tt.m, tt.opts...); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestVerifyHelper(t *testing.T) {
	o := &Outcome{
		Outputs: []Value{1, 1},
		Decided: []bool{true, true},
	}
	if err := Verify([]Value{0, 1}, o); err != nil {
		t.Fatal(err)
	}
	o.Outputs[1] = 0
	err := Verify([]Value{0, 1}, o)
	if err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("err = %v", err)
	}
	// Undecided processes are skipped, and the texts index the decided
	// outputs in pid order.
	for _, c := range []struct {
		o    *Outcome
		want string
	}{
		{&Outcome{Outputs: []Value{1, 5, 0}, Decided: []bool{true, false, true}}, "check: agreement violated: output[1]=0 but output[0]=1"},
		{&Outcome{Outputs: []Value{7, 4, 4}, Decided: []bool{false, true, true}}, "check: validity violated: output[0]=4 is nobody's input [0 1]"},
	} {
		if got := fmt.Sprint(Verify([]Value{0, 1}, c.o)); got != c.want {
			t.Errorf("Verify: got %q, want %q", got, c.want)
		}
	}
}

func TestStageDistributionMostlyEarly(t *testing.T) {
	// The expected number of stages is ≤ 1/δ; under friendly schedules the
	// vast majority of decisions happen by stage 2.
	n := 8
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	const trials = 100
	for seed := uint64(0); seed < trials; seed++ {
		out, err := cons.Solve(mixedInputs(n, 2, int(seed)), NewUniformRandom(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range out.Stage {
			if st > 2 {
				late++
			}
		}
	}
	if late > trials*n/10 {
		t.Errorf("%d/%d decisions after stage 2", late, trials*n)
	}
}
