package modcon

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunObjectWithOptions(t *testing.T) {
	file := NewRegisters()
	r, err := NewRatifier(file, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(r,
		WithRegisters(file), WithN(3), WithInputs(1),
		WithScheduler(NewRoundRobin()), WithSeed(1), WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range run.Decisions {
		if !d.Decided || d.V != 1 {
			t.Fatalf("pid %d decision %s", pid, d)
		}
	}
	if run.Trace == nil || run.Trace.Len() == 0 {
		t.Fatal("WithTrace recorded nothing")
	}
}

func TestRunValidatesOptions(t *testing.T) {
	file := NewRegisters()
	r, err := NewRatifier(file, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []RunOption
		want string
	}{
		{"missing n", []RunOption{WithRegisters(file), WithInputs(1), WithScheduler(NewRoundRobin())}, "WithN"},
		{"missing registers", []RunOption{WithN(2), WithInputs(1), WithScheduler(NewRoundRobin())}, "WithRegisters"},
		{"missing scheduler", []RunOption{WithN(2), WithRegisters(file), WithInputs(1)}, "WithScheduler"},
		{"missing inputs", []RunOption{WithN(2), WithRegisters(file), WithScheduler(NewRoundRobin())}, "WithInputs"},
	}
	for _, tc := range cases {
		_, err := Run(r, tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %s", tc.name, err, tc.want)
		}
		if !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want errors.Is(err, ErrBadOption)", tc.name, err)
		}
	}
}

// TestOptionErrorSentinels pins the typed classification of configuration
// errors: missing requirements match ErrBadOption, capabilities a backend
// cannot honor match ErrOptionUnsupported, and the two never overlap.
func TestOptionErrorSentinels(t *testing.T) {
	file := NewRegisters()
	r, err := NewRatifier(file, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Sim without a scheduler: a missing requirement.
	_, err = Run(r, WithRegisters(file), WithN(2), WithInputs(1))
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("sim without scheduler: err = %v, want ErrBadOption", err)
	}
	if errors.Is(err, ErrOptionUnsupported) {
		t.Errorf("sim without scheduler: err = %v, must not match ErrOptionUnsupported", err)
	}

	// Live with a scheduler / with tracing: unsupported capabilities.
	for _, tc := range []struct {
		name string
		opts []RunOption
	}{
		{"live with scheduler", []RunOption{WithBackend(Live), WithRegisters(file), WithN(2), WithInputs(1), WithScheduler(NewRoundRobin())}},
		{"live with trace", []RunOption{WithBackend(Live), WithRegisters(file), WithN(2), WithInputs(1), WithTrace(true)}},
	} {
		_, err := Run(r, tc.opts...)
		if !errors.Is(err, ErrOptionUnsupported) {
			t.Errorf("%s: err = %v, want ErrOptionUnsupported", tc.name, err)
		}
		if errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, must not match ErrBadOption", tc.name, err)
		}
	}
}

func TestRunProtocolWithOptions(t *testing.T) {
	cons, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	file, proto, err := cons.Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunProtocol(proto,
		WithRegisters(file), WithN(4), WithInputs(0, 1, 0, 1),
		WithScheduler(NewUniformRandom()), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	outs := run.DecidedOutputs()
	if len(outs) != 4 {
		t.Fatalf("decided outputs %v", outs)
	}
	for _, v := range outs {
		if v != outs[0] {
			t.Fatalf("disagreement: %v", outs)
		}
	}
}

// TestTrialsDeterministicAcrossWorkers is the public-API face of the
// engine's determinism contract: same root seed, any worker count, same
// fold sequence.
func TestTrialsDeterministicAcrossWorkers(t *testing.T) {
	cons, err := NewBinary(6)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(workers int) ([]int, int64) {
		var works []int
		var sum int64
		report, err := Trials(24, func(ctx context.Context, tr Trial) (*Outcome, error) {
			inputs := make([]Value, 6)
			for p := range inputs {
				inputs[p] = Value((p + tr.Index) % 2)
			}
			return cons.Solve(inputs, NewUniformRandom(), tr.Seed, RunConfig{Context: ctx})
		}, func(tr Trial, out *Outcome, rep TrialReport) {
			if rep.Outcome != TrialOK {
				t.Fatalf("trial %d classified %s: %v", tr.Index, rep.Outcome, rep.Err)
			}
			works = append(works, out.TotalWork)
			sum += int64(out.TotalWork)
		}, WithSeed(7), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := report.Count(TrialOK); got != 24 {
			t.Fatalf("report counted %d ok trials, want 24", got)
		}
		return works, sum
	}
	refWorks, refSum := sweep(1)
	for _, w := range []int{4, 16} {
		works, sum := sweep(w)
		if sum != refSum {
			t.Fatalf("workers=%d aggregate %d != %d", w, sum, refSum)
		}
		for i := range works {
			if works[i] != refWorks[i] {
				t.Fatalf("workers=%d trial %d work %d != %d", w, i, works[i], refWorks[i])
			}
		}
	}
}

func TestTrialsClassifiesError(t *testing.T) {
	boom := errors.New("boom")
	report, err := Trials(10, func(ctx context.Context, tr Trial) (int, error) {
		if tr.Index == 4 {
			return 0, boom
		}
		return 1, nil
	}, nil, WithSeed(1))
	if err != nil {
		t.Fatalf("unified sweep aborted instead of classifying: %v", err)
	}
	if got := report.Count(TrialFailed); got != 1 {
		t.Fatalf("report counted %d failed trials, want 1: %s", got, report)
	}
	for _, rep := range report.Reports {
		if rep.Trial.Index == 4 && !errors.Is(rep.Err, boom) {
			t.Fatalf("trial 4 err = %v, want boom", rep.Err)
		}
	}
}

func TestSolveWithContextCancellation(t *testing.T) {
	// A ratifier-only spec under lockstep never decides; without the huge
	// stage count it exhausts, so give it enough stages that only the
	// context stops it.
	cons, err := NewBinary(4, WithConciliator(ConciliatorNone), WithStages(1<<20), WithFastPath(false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = cons.Solve([]Value{0, 1, 0, 1}, NewLaggard(), 3, RunConfig{Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
