package modcon

// Public-API tests for Consensus.Sweep: the sweep's per-trial outcomes must
// be bit-identical at any worker count, and the option-validation errors
// must be actionable.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/harness"
)

func sweepDigest(t *testing.T, c *Consensus, trials int, opts ...RunOption) ([]int, []Value) {
	t.Helper()
	works := make([]int, trials)
	values := make([]Value, trials)
	opts = append(opts, WithSeed(21))
	err := c.Sweep(trials, func() Scheduler { return NewUniformRandom() },
		func(tr Trial) []Value { return mixedInputs(c.N(), 2, tr.Index) },
		func(tr Trial, o *Outcome) {
			works[tr.Index] = o.TotalWork
			values[tr.Index] = o.Value
		}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return works, values
}

func TestConsensusSweepWorkerDeterminism(t *testing.T) {
	c, err := NewBinary(8)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 30
	baseWorks, baseValues := sweepDigest(t, c, trials, WithWorkers(1))
	for _, workers := range []int{2, 3} {
		works, values := sweepDigest(t, c, trials, WithWorkers(workers))
		if !reflect.DeepEqual(works, baseWorks) || !reflect.DeepEqual(values, baseValues) {
			t.Errorf("WithWorkers(%d) diverged from the single-worker sweep", workers)
		}
	}
}

func TestConsensusSweepStages(t *testing.T) {
	c, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	decided := 0
	err = c.Sweep(10, func() Scheduler { return NewRoundRobin() }, nil,
		func(tr Trial, o *Outcome) {
			for pid, d := range o.Decided {
				if !d {
					continue
				}
				decided++
				if stage := o.Stage[pid]; stage < 0 && !o.FellBack[pid] {
					t.Errorf("trial %d pid %d decided but reports stage %d without fallback", tr.Index, pid, stage)
				}
			}
		}, WithInputs(1), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if decided == 0 {
		t.Fatal("no process decided in any trial")
	}
}

func TestConsensusSweepOptionValidation(t *testing.T) {
	c, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	nop := func(Trial, *Outcome) {}
	mk := func() Scheduler { return NewRoundRobin() }

	err = c.Sweep(2, mk, nil, nop, WithInputs(1), WithScheduler(NewRoundRobin()))
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("WithScheduler on Sweep: got %v, want ErrBadOption (factory required)", err)
	}
	err = c.Sweep(2, nil, nil, nop, WithInputs(1))
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("nil scheduler factory on Sim: got %v, want ErrBadOption", err)
	}
	err = c.Sweep(2, mk, nil, nop)
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("no inputs: got %v, want ErrBadOption", err)
	}
}

// TestConsensusSweepTrialMatchesSolve pins the one execution path: trial i
// of a Sweep with root seed r is the execution Solve runs at
// harness.TrialSeed(r, i), outcome for outcome — with and without faults,
// under regular registers, and traced. The outcomes are kept until the
// sweep ends, so each must own what it holds, its trace included: the
// session records its next trial over the one it ran before.
func TestConsensusSweepTrialMatchesSolve(t *testing.T) {
	const n, trials, root = 8, 12, 77
	c, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	plan := Faults(CrashFault(0, 5), LoseCoinFault(AllProcs, 1, 4))
	cells := []struct {
		name string
		rc   RunConfig
		opts []RunOption
	}{
		{name: "plain"},
		{name: "faults", rc: RunConfig{Faults: plan}, opts: []RunOption{WithFaultPlan(plan)}},
		// Sweep builds its own register files; only the model applies.
		{name: "regular", rc: RunConfig{Registers: Regular}, opts: []RunOption{WithRegisters(nil, Regular)}},
		{name: "traced", rc: RunConfig{Traced: true}, opts: []RunOption{WithTrace(true)}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			got := make([]*Outcome, trials)
			opts := append([]RunOption{WithSeed(root), WithWorkers(3)}, cell.opts...)
			err := c.Sweep(trials, func() Scheduler { return NewUniformRandom() },
				func(tr Trial) []Value { return mixedInputs(n, 2, tr.Index) },
				func(tr Trial, o *Outcome) { got[tr.Index] = o }, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range got {
				want, err := c.Solve(mixedInputs(n, 2, i), NewUniformRandom(), harness.TrialSeed(root, i), cell.rc)
				if err != nil {
					t.Fatalf("trial %d: Solve: %v", i, err)
				}
				if !reflect.DeepEqual(o, want) {
					t.Errorf("trial %d: Sweep outcome %+v, Solve outcome %+v", i, o, want)
				}
			}
		})
	}
}

// TestConsensusSweepRejectsOutOfDomainInputs: an out-of-domain WithInputs
// fails Sweep up front with Solve's error, and an out-of-domain per-trial
// input — which panics inside the ratifiers, on a dispatcher worker —
// fails the sweep as that trial's error instead of crashing the process.
func TestConsensusSweepRejectsOutOfDomainInputs(t *testing.T) {
	c, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Scheduler { return NewRoundRobin() }
	_, solveErr := c.Solve([]Value{2}, NewRoundRobin(), 1)
	if solveErr == nil {
		t.Fatal("Solve accepted input 2 for m=2")
	}
	err = c.Sweep(2, mk, nil, nil, WithInputs(2))
	if !errors.Is(err, ErrBadOption) || !strings.Contains(err.Error(), solveErr.Error()) {
		t.Errorf("WithInputs(2): got %v, want ErrBadOption carrying %q", err, solveErr)
	}

	const victim = 3
	folded := 0
	err = c.Sweep(8, mk, func(tr Trial) []Value {
		if tr.Index == victim {
			return []Value{2}
		}
		return []Value{1}
	}, func(Trial, *Outcome) { folded++ }, WithWorkers(2))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("trial %d: panic:", victim)) ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("per-trial input 2: got %v, want trial %d's contained panic", err, victim)
	}
	if folded != victim {
		t.Errorf("folded %d trials before the failure, want %d", folded, victim)
	}
}

// TestConsensusSweepNilTrialInputs: a nil return from the per-trial inputs
// func means "use WithInputs"; without WithInputs it fails the sweep at
// that trial instead of running the trial on inputs nobody chose.
func TestConsensusSweepNilTrialInputs(t *testing.T) {
	c, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	mk := func() Scheduler { return NewRoundRobin() }
	inputs := func(tr Trial) []Value {
		if tr.Index == victim {
			return nil
		}
		return []Value{1, 1, 1, 1}
	}
	folded := 0
	err = c.Sweep(4, mk, inputs, func(Trial, *Outcome) { folded++ })
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("trial %d:", victim)) ||
		!strings.Contains(err.Error(), "inputs func returned nil") {
		t.Errorf("nil inputs without WithInputs: got %v, want trial %d's error", err, victim)
	}
	if folded != victim {
		t.Errorf("folded %d trials before the failure, want %d", folded, victim)
	}

	values := make([]Value, 4)
	err = c.Sweep(4, mk, inputs, func(tr Trial, o *Outcome) { values[tr.Index] = o.Value }, WithInputs(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Value{1, 1, 0, 1}; !reflect.DeepEqual(values, want) {
		t.Errorf("decided values %v, want %v (trial %d on WithInputs)", values, want, victim)
	}
}

// TestSweepFromLockedThread: a sweep called from a thread-locked goroutine
// finishes. Its workers create the pooled sessions' coroutines on their own
// goroutines, so the sessions must also be closed on a goroutine the
// harness starts, never on the locked caller's (see runInChild).
func TestSweepFromLockedThread(t *testing.T) {
	runInChild(t, func(t *testing.T) {
		const n = 8
		c, err := NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		sweep := func() (works []int) {
			err := c.Sweep(8, func() Scheduler { return NewFirstMoverAttack() },
				func(tr Trial) []Value { return mixedInputs(n, 2, tr.Index) },
				func(_ Trial, o *Outcome) { works = append(works, o.TotalWork) },
				WithWorkers(1), WithSeed(3))
			if err != nil {
				t.Error(err)
			}
			return works
		}
		want := sweep()
		var locked []int
		onLockedThread(func() { locked = sweep() })
		if !reflect.DeepEqual(locked, want) {
			t.Errorf("locked caller: total work %v, want %v", locked, want)
		}
	})
}
