package modcon

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFaultPlanParseRoundTrip(t *testing.T) {
	p, err := ParseFaults("crash:pid=0,after=5;losecoin:p=0.25;stall:after=2")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseFaults(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if p.String() != q.String() {
		t.Fatalf("round trip: %q != %q", p.String(), q.String())
	}
}

// TestSolveWithCrashFaults: planned crashes through the public RunConfig, on
// both backends — survivors must still agree.
func TestSolveWithCrashFaults(t *testing.T) {
	cons, err := NewBinary(4, WithFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Value{0, 1, 1, 0}
	// Threshold 2 is below any deciding path's op count, so the crash always
	// lands before pid 0 can decide — on either backend, whatever the
	// interleaving.
	plan := Faults(CrashFault(0, 2))
	for _, tc := range []struct {
		name string
		rc   RunConfig
		s    Scheduler
	}{
		{"sim", RunConfig{Faults: plan}, NewUniformRandom()},
		{"live", RunConfig{Backend: Live, Faults: plan}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := cons.Solve(inputs, tc.s, 5, tc.rc)
			if err != nil {
				t.Fatal(err)
			}
			if out.Decided[0] {
				t.Fatal("crashed process decided")
			}
			if out.CutShort() {
				t.Fatal("no survivor decided")
			}
			if out.SafetyViolation() != nil {
				t.Fatalf("violation: %v", out.SafetyViolation())
			}
		})
	}
}

// TestTrialsWatchdog: the public acceptance path — a stall-everyone plan
// livelocks each trial; the watchdog kills them as timeouts and the sweep
// completes, on both backends.
func TestTrialsWatchdog(t *testing.T) {
	cons, err := NewBinary(4, WithFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []Value{0, 1, 1, 0}
	plan := Faults(StallFault(AllProcs, 2))
	for _, tc := range []struct {
		name string
		rc   func(ctx context.Context) RunConfig
		s    func() Scheduler
	}{
		{"sim",
			func(ctx context.Context) RunConfig { return RunConfig{Faults: plan, Context: ctx} },
			func() Scheduler { return NewUniformRandom() }},
		{"live",
			func(ctx context.Context) RunConfig { return RunConfig{Backend: Live, Faults: plan, Context: ctx} },
			func() Scheduler { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, err := Trials(2,
				func(ctx context.Context, tr Trial) (*Outcome, error) {
					return cons.Solve(inputs, tc.s(), tr.Seed, tc.rc(ctx))
				},
				nil,
				WithTrialDeadline(100*time.Millisecond), WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			if report.Trials != 2 || report.Count(TrialTimeout) != 2 {
				t.Fatalf("report %s, want timeout=2", report)
			}
			for _, rep := range report.Reports {
				if !errors.Is(rep.Err, ErrTrialDeadline) {
					t.Fatalf("trial %d err = %v, want ErrTrialDeadline", rep.Trial.Index, rep.Err)
				}
			}
		})
	}
}

// TestTrialsClassifiesCrashedShort: crashing everyone, through the
// WithFaults option, gives a completed run with no deciders.
func TestTrialsClassifiesCrashedShort(t *testing.T) {
	cons, err := NewBinary(4, WithFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Trials(3,
		func(ctx context.Context, tr Trial) (*ProtocolRun, error) {
			file, proto, err := cons.Build()
			if err != nil {
				return nil, err
			}
			return RunProtocol(proto,
				WithRegisters(file), WithN(4), WithInputs(0, 1, 1, 0),
				WithScheduler(NewUniformRandom()), WithSeed(tr.Seed), WithContext(ctx),
				WithFaults(CrashFault(AllProcs, 2)))
		},
		nil, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Count(TrialCrashedShort); got != 3 {
		t.Fatalf("report %s, want crashed-short=3", report)
	}
}

// TestSolveLoseCoinStillSafe: heavy coin loss slows the race but can never
// break agreement.
func TestSolveLoseCoinStillSafe(t *testing.T) {
	cons, err := NewBinary(4, WithFallback(true))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		out, err := cons.Solve([]Value{0, 1, 1, 0}, NewUniformRandom(), seed,
			RunConfig{Faults: Faults(LoseCoinFault(AllProcs, 3, 4))})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.CutShort() {
			t.Fatalf("seed %d: nobody decided", seed)
		}
	}
}
