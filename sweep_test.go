package modcon

// Public-API tests for Consensus.Sweep: the sweep's per-trial outcomes must
// be bit-identical at any worker count, and the option-validation errors
// must be actionable.

import (
	"errors"
	"reflect"
	"testing"
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
