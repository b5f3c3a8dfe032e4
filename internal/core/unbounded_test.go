package core_test

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/sim"
	"github.com/modular-consensus/modcon/internal/value"
)

func newUnbounded(t *testing.T, n int) (*register.File, *core.Unbounded) {
	t.Helper()
	file := register.NewFile()
	u, err := core.NewUnbounded(n, file,
		func(f *register.File, i int) core.Object { return ratifier.NewBinary(f, i) },
		func(f *register.File, i int) core.Object { return conciliator.NewImpatient(f, n, i) },
	)
	if err != nil {
		t.Fatal(err)
	}
	return file, u
}

func runUnbounded(t *testing.T, n int, s sched.Scheduler, seed uint64) (*exec.Result, *core.Unbounded) {
	t.Helper()
	file, u := newUnbounded(t, n)
	inputs := make([]value.Value, n)
	for i := range inputs {
		inputs[i] = value.Value(i % 2)
	}
	res, err := sim.Run(sim.Config{N: n, File: file, Scheduler: s, Seed: seed},
		func(e *sim.Env) value.Value { return u.Run(e, inputs[e.PID()]) })
	if err != nil {
		t.Fatal(err)
	}
	return res, u
}

func TestUnboundedIsConsensus(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for seed := uint64(0); seed < 20; seed++ {
			res, _ := runUnbounded(t, n, sched.NewUniformRandom(), seed)
			inputs := make([]value.Value, n)
			for i := range inputs {
				inputs[i] = value.Value(i % 2)
			}
			if err := check.Consensus(inputs, res.HaltedOutputs()); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if len(res.HaltedOutputs()) != n {
				t.Fatalf("n=%d seed=%d: not all processes decided", n, seed)
			}
		}
	}
}

func TestUnboundedUnderAttack(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		res, u := runUnbounded(t, 8, sched.NewFirstMoverAttack(), seed)
		if len(res.HaltedOutputs()) != 8 {
			t.Fatalf("seed %d: undecided processes", seed)
		}
		for pid := 0; pid < 8; pid++ {
			if u.DecidedIndex(pid) < 0 {
				t.Fatalf("seed %d: pid %d has no decided index", seed, pid)
			}
		}
	}
}

func TestUnboundedLazyMaterialization(t *testing.T) {
	// Unanimous inputs decide on the fast path: only R₋₁ and R₀ exist.
	file, u := newUnbounded(t, 4)
	_, err := sim.Run(sim.Config{N: 4, File: file, Scheduler: sched.NewRoundRobin(), Seed: 1},
		func(e *sim.Env) value.Value { return u.Run(e, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Materialized(); got != 2 {
		t.Fatalf("unanimous run materialized %d objects, want 2", got)
	}
	// Registers allocated: two binary ratifiers = 2*3 = 6.
	if file.Len() != 6 {
		t.Fatalf("file holds %d registers, want 6", file.Len())
	}
}

func TestUnboundedGrowsOnDemand(t *testing.T) {
	// Mixed inputs under an attack adversary occasionally need stage ≥ 2;
	// across seeds the materialized count must exceed the fast path and
	// track the furthest decider.
	maxSeen := 0
	for seed := uint64(0); seed < 40; seed++ {
		res, u := runUnbounded(t, 4, sched.NewFirstMoverAttack(), seed)
		_ = res
		if got := u.Materialized(); got > maxSeen {
			maxSeen = got
		}
	}
	if maxSeen <= 2 {
		t.Fatal("no run ever left the fast path; attack adversary broken?")
	}
}

func TestUnboundedValidation(t *testing.T) {
	file := register.NewFile()
	rb := func(f *register.File, i int) core.Object { return ratifier.NewBinary(f, i) }
	cb := func(f *register.File, i int) core.Object { return conciliator.NewImpatient(f, 2, i) }
	cases := []struct {
		n        int
		file     *register.File
		rat, con core.Builder
	}{
		{0, file, rb, cb},
		{2, nil, rb, cb},
		{2, file, nil, cb},
		{2, file, rb, nil},
	}
	for i, tt := range cases {
		if _, err := core.NewUnbounded(tt.n, tt.file, tt.rat, tt.con); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
