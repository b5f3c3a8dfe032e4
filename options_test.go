package modcon

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/exec"
)

// runCollect runs one execution of a cheap-collect-ratifier protocol at
// n=4 under round-robin with seed 7, with opts added, and returns its run.
func runCollect(t *testing.T, opts ...RunOption) (*ProtocolRun, error) {
	t.Helper()
	cons, err := NewBinary(4, WithScheme(SchemeCollect))
	if err != nil {
		t.Fatal(err)
	}
	file, proto, err := cons.Build()
	if err != nil {
		t.Fatal(err)
	}
	return RunProtocol(proto, append([]RunOption{
		WithRegisters(file), WithN(4), WithInputs(0, 1, 1, 0),
		WithScheduler(NewRoundRobin()), WithSeed(7)}, opts...)...)
}

// TestWithCheapCollect pins that the option charges a collect one
// operation, as RunConfig.CheapCollect does for Solve: the collect-ratifier
// protocol takes 60 operations with it and 96 without.
func TestWithCheapCollect(t *testing.T) {
	work := map[bool]int{}
	for _, on := range []bool{false, true} {
		run, err := runCollect(t, WithCheapCollect(on))
		if err != nil {
			t.Fatal(err)
		}
		work[on] = run.Result.TotalWork
	}
	if work[true] != 60 || work[false] != 96 {
		t.Fatalf("total work with/without cheap collect = %d/%d, want 60/96", work[true], work[false])
	}
	cons, err := NewBinary(4, WithScheme(SchemeCollect))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.Solve([]Value{0, 1, 1, 0}, NewRoundRobin(), 7, RunConfig{CheapCollect: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalWork != work[true] {
		t.Fatalf("Solve with RunConfig.CheapCollect took %d operations, WithCheapCollect %d", out.TotalWork, work[true])
	}
}

// TestWithMaxSteps pins that the option bounds an execution's total work:
// a run cut at 5 operations fails with the step-limit error.
func TestWithMaxSteps(t *testing.T) {
	if _, err := runCollect(t, WithMaxSteps(5)); !errors.Is(err, exec.ErrStepLimit) {
		t.Fatalf("err = %v, want one wrapping exec.ErrStepLimit", err)
	}
}

// TestWithRetries pins that Trials re-attempts a trial that failed with an
// unknown error: with one retry, a first attempt's failure is classified OK
// after two attempts; without the option the trial is TrialFailed.
func TestWithRetries(t *testing.T) {
	for _, tc := range []struct {
		opts     []RunOption
		outcome  TrialOutcome
		attempts int
	}{
		{nil, TrialFailed, 1},
		{[]RunOption{WithRetries(1)}, TrialOK, 2},
	} {
		attempts := 0
		report, err := Trials(1,
			func(context.Context, Trial) (int, error) {
				if attempts++; attempts == 1 {
					return 0, errors.New("transient")
				}
				return 0, nil
			},
			nil, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep := report.Reports[0]; rep.Outcome != tc.outcome || rep.Attempts != tc.attempts {
			t.Fatalf("options %d: trial %s after %d attempts, want %s after %d",
				len(tc.opts), rep.Outcome, rep.Attempts, tc.outcome, tc.attempts)
		}
	}
}

// TestWithFailFast pins that the option stops a sweep at its first safety
// violation: at one worker, a violation in trial 3 of 10 leaves trials 0-3
// classified and the report marked as stopped early.
func TestWithFailFast(t *testing.T) {
	report, err := Trials(10,
		func(_ context.Context, tr Trial) (*Outcome, error) {
			out := &Outcome{Decided: []bool{true}}
			if tr.Index == 3 {
				out.Violation = errors.New("planted violation")
			}
			return out, nil
		},
		nil, WithWorkers(1), WithFailFast(true))
	if err != nil {
		t.Fatal(err)
	}
	if report.Trials != 4 || report.Violations() != 1 || !report.StoppedEarly {
		t.Fatalf("report %s over %d trials, stopped early %v; want 4 trials, 1 violation, stopped early",
			report, report.Trials, report.StoppedEarly)
	}
}

// TestCrashOnRoundAndDelayFaults pins the two fault constructors: a plan of
// them prints and re-parses in the plan grammar, and a crash in round 0
// lands before the process's first operation, so it never decides.
func TestCrashOnRoundAndDelayFaults(t *testing.T) {
	const want = "crashround:pid=1,round=2;delay:pid=0,max=50µs"
	plan := Faults(CrashOnRoundFault(1, 2), DelayFault(0, 50*time.Microsecond))
	if plan.String() != want {
		t.Fatalf("plan = %q, want %q", plan.String(), want)
	}
	back, err := ParseFaults(plan.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != want {
		t.Fatalf("re-parsed plan = %q, want %q", back.String(), want)
	}

	cons, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.Solve([]Value{0, 1, 1, 0}, NewRoundRobin(), 7,
		RunConfig{Faults: Faults(CrashOnRoundFault(1, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if out.Decided[1] {
		t.Fatal("pid 1, crashed in round 0, decided")
	}
	if out.CutShort() {
		t.Fatal("no survivor decided")
	}
}
