package modcon

import (
	"errors"
	"testing"
)

// TestOneVerdictPerRunConfig: Solve, SolveSequence and Simulate lower a
// RunConfig through the same validation, so one config gets one verdict —
// the same error class — whichever of them it is passed to.
func TestOneVerdictPerRunConfig(t *testing.T) {
	const n = 4
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	uniform := func() Scheduler { return NewUniformRandom() }
	for _, tc := range []struct {
		name string
		s    func() Scheduler
		rc   RunConfig
		want error
	}{
		{"crash-after-out-of-range", uniform, RunConfig{CrashAfter: map[int]int{9: 1}}, ErrBadOption},
		{"stall-without-context", uniform, RunConfig{Faults: Faults(StallFault(0, 2))}, ErrBadOption},
		{"live-with-scheduler", uniform, RunConfig{Backend: Live}, ErrOptionUnsupported},
		{"unknown-registers", uniform, RunConfig{Registers: RegisterModel(9)}, ErrBadOption},
		{"power-cap-exceeded", func() Scheduler { return NewFirstMoverAttack() }, RunConfig{Power: Oblivious}, ErrBadOption},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cons.Solve([]Value{0, 1, 1, 0}, tc.s(), 1, tc.rc)
			if !errors.Is(err, tc.want) {
				t.Errorf("Solve: err = %v, want %v", err, tc.want)
			}
			_, err = cons.SolveSequence([][]Value{{0, 1, 1, 0}, {1}}, tc.s(), 1, tc.rc)
			if !errors.Is(err, tc.want) {
				t.Errorf("SolveSequence: err = %v, want %v", err, tc.want)
			}
			file := NewRegisters()
			obj := NewImpatientConciliator(file, n, 1)
			_, err = Simulate(n, file, tc.s(), 1, func(e Env) Value {
				return obj.Invoke(e, Value(e.PID()%2)).V
			}, tc.rc)
			if !errors.Is(err, tc.want) {
				t.Errorf("Simulate: err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestConfigErrorsFailBeforeRunning: malformed inputs, fault plans and
// process counts are configuration errors wrapping ErrBadOption, and a
// Sweep reports them before it dispatches a single trial.
func TestConfigErrorsFailBeforeRunning(t *testing.T) {
	const n = 4
	cons, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	rr := func() Scheduler { return NewRoundRobin() }
	runObj := func(opts ...RunOption) error {
		file := NewRegisters()
		opts = append(opts, WithN(n), WithRegisters(file), WithScheduler(NewRoundRobin()))
		_, err := Run(NewImpatientConciliator(file, n, 1), opts...)
		return err
	}
	proc := func(e Env) Value { return 0 }
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"sweep-wrong-input-count", func() error {
			return cons.Sweep(4, rr, nil, func(Trial, *Outcome) { t.Error("a trial ran") }, WithInputs(0, 1, 0))
		}},
		{"sweep-fault-pid-out-of-range", func() error {
			return cons.Sweep(4, rr, nil, func(Trial, *Outcome) { t.Error("a trial ran") }, WithInputs(1), WithFaults(CrashFault(9, 1)))
		}},
		{"run-wrong-input-count", func() error { return runObj(WithInputs(0, 1, 0)) }},
		{"run-fault-pid-out-of-range", func() error { return runObj(WithInputs(1), WithFaults(CrashFault(9, 1))) }},
		{"run-stall-without-context", func() error { return runObj(WithInputs(1), WithFaults(StallFault(0, 1))) }},
		{"solve-wrong-input-count", func() error {
			_, err := cons.Solve([]Value{0, 1, 0}, NewRoundRobin(), 1)
			return err
		}},
		{"solve-fault-pid-out-of-range", func() error {
			_, err := cons.Solve([]Value{1}, NewRoundRobin(), 1, RunConfig{Faults: Faults(CrashFault(9, 1))})
			return err
		}},
		{"solve-input-out-of-domain", func() error {
			_, err := cons.Solve([]Value{2}, NewRoundRobin(), 1)
			return err
		}},
		{"simulate-zero-processes", func() error {
			_, err := Simulate(0, NewRegisters(), NewRoundRobin(), 1, proc)
			return err
		}},
		{"simulate-nil-file", func() error {
			_, err := Simulate(n, nil, NewRoundRobin(), 1, proc)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); !errors.Is(err, ErrBadOption) {
				t.Errorf("err = %v, want ErrBadOption", err)
			}
		})
	}
}
