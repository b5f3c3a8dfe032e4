package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/live"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// robustProto builds the full binary protocol (with the CIL fallback, so
// fault-free executions always decide) for the robust-engine tests.
func robustProto(t *testing.T, n int) (*register.File, *core.Protocol) {
	t.Helper()
	file := register.NewFile()
	proto, err := recipe.Spec{N: n, M: 2, FastPath: true, Stages: 64, Fallback: true}.Build(file)
	if err != nil {
		t.Fatal(err)
	}
	return file, proto
}

// robustConfig is the per-backend ObjectConfig seasoning: sim needs an
// adversary, live rejects one.
func robustBackends() []struct {
	name string
	cfg  func(oc ObjectConfig) ObjectConfig
} {
	return []struct {
		name string
		cfg  func(oc ObjectConfig) ObjectConfig
	}{
		{"sim", func(oc ObjectConfig) ObjectConfig {
			oc.Scheduler = sched.NewUniformRandom()
			return oc
		}},
		{"live", func(oc ObjectConfig) ObjectConfig {
			oc.Backend = live.Backend()
			return oc
		}},
	}
}

// reportOf returns the report r lists for trial index, failing t if it
// lists none: a robust sweep keeps the reports of its non-ok trials only.
func reportOf(t *testing.T, r *SweepReport, index int) TrialReport {
	t.Helper()
	for _, rep := range r.Reports {
		if rep.Trial.Index == index {
			return rep
		}
	}
	t.Fatalf("no report for trial %d among %d reports (%s)", index, len(r.Reports), r)
	return TrialReport{}
}

// TestRobustWatchdogKillsStalledTrials is the PR's acceptance scenario: a
// fault plan stalling every process livelocks each trial; the deadline
// watchdog must kill the trial, classify it timeout, and the sweep must
// still complete with correct partial aggregates — on both backends. Runs
// under -race in CI.
func TestRobustWatchdogKillsStalledTrials(t *testing.T) {
	for _, be := range robustBackends() {
		t.Run(be.name, func(t *testing.T) {
			const trials = 3
			stallAll := fault.New(fault.Stall(fault.AllProcs, 2))
			report, err := RunTrialsRobust(
				Sweep{Trials: trials, Seed: 7},
				Resilience{Deadline: 100 * time.Millisecond},
				func(ctx context.Context, tr Trial) (*ProtocolRun, error) {
					file, proto := robustProto(t, 4)
					return RunProtocol(proto, be.cfg(ObjectConfig{
						N: 4, File: file, Inputs: []value.Value{0, 1, 0, 1},
						Seed: tr.Seed, Faults: stallAll, Context: ctx,
					}))
				}, nil)
			if err != nil {
				t.Fatalf("sweep returned error: %v", err)
			}
			if report.Trials != trials {
				t.Fatalf("classified %d trials, want %d", report.Trials, trials)
			}
			if got := report.Count(OutcomeTimeout); got != trials {
				t.Fatalf("timeouts = %d, want %d (report: %s)", got, trials, report)
			}
			if report.StoppedEarly {
				t.Fatal("sweep reported StoppedEarly despite classifying every trial")
			}
			for _, rep := range report.Reports {
				if !errors.Is(rep.Err, ErrTrialDeadline) {
					t.Fatalf("trial %d error %v does not wrap ErrTrialDeadline", rep.Trial.Index, rep.Err)
				}
			}
		})
	}
}

// TestRobustMixedOutcomesPartialAggregates stalls a strict subset of trials
// (by index) and checks the aggregates separate ok from timeout correctly.
func TestRobustMixedOutcomesPartialAggregates(t *testing.T) {
	const trials = 6
	stallAll := fault.New(fault.Stall(fault.AllProcs, 2))
	report, err := RunTrialsRobust(
		Sweep{Trials: trials, Seed: 11},
		Resilience{Deadline: 150 * time.Millisecond},
		func(ctx context.Context, tr Trial) (*ProtocolRun, error) {
			file, proto := robustProto(t, 4)
			oc := ObjectConfig{
				N: 4, File: file, Inputs: []value.Value{0, 1, 0, 1},
				Seed: tr.Seed, Scheduler: sched.NewUniformRandom(), Context: ctx,
			}
			if tr.Index%2 == 1 {
				oc.Faults = stallAll
			}
			return RunProtocol(proto, oc)
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Count(OutcomeOK) != 3 || report.Count(OutcomeTimeout) != 3 {
		t.Fatalf("outcomes %s, want ok=3 timeout=3", report)
	}
	for i, rep := range report.Reports {
		if rep.Trial.Index != 2*i+1 || rep.Outcome != OutcomeTimeout {
			t.Fatalf("report %d: trial %d classified %s, want trial %d timed out", i, rep.Trial.Index, rep.Outcome, 2*i+1)
		}
	}
}

// TestRobustPanicContainment: a panicking trial is contained and classified;
// the rest of the sweep completes, and once it has returned its runners,
// the panicked one included, have exited.
func TestRobustPanicContainment(t *testing.T) {
	base := settledGoroutines()
	report, err := RunTrialsRobust(
		Sweep{Trials: 5, Seed: 3},
		Resilience{},
		func(ctx context.Context, tr Trial) (int, error) {
			if tr.Index == 2 {
				panic("boom in trial 2")
			}
			return tr.Index, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Count(OutcomeOK) != 4 || report.Count(OutcomePanicked) != 1 {
		t.Fatalf("outcomes %s, want ok=4 panicked=1", report)
	}
	rep := reportOf(t, report, 2)
	if rep.Outcome != OutcomePanicked || !strings.Contains(rep.Err.Error(), "boom in trial 2") {
		t.Fatalf("trial 2 report: outcome=%s err=%v", rep.Outcome, rep.Err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("panicked trial retried: %d attempts", rep.Attempts)
	}
	checkGoroutinesBack(t, base, "a robust sweep with a panicking trial")
}

// TestRobustTrialGoexitIsPanicked: a robust trial that calls
// runtime.Goexit never returns to its attempt, and without a Deadline
// nothing cancels it. The attempt must still report: the trial is
// classified panicked, never retried, and the sweep finishes, leaving no
// runner behind.
func TestRobustTrialGoexitIsPanicked(t *testing.T) {
	type result struct {
		report *SweepReport
		err    error
	}
	base := settledGoroutines()
	done := make(chan result, 1)
	go func() {
		report, err := RunTrialsRobust(Sweep{Trials: 50, Workers: 2, Seed: 1}, Resilience{Retries: 3},
			func(ctx context.Context, tr Trial) (int, error) {
				if tr.Index == 5 {
					runtime.Goexit()
				}
				return tr.Index, nil
			}, nil)
		done <- result{report, err}
	}()
	var got result
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("robust sweep with a trial that called runtime.Goexit still running after 10s")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.report.Trials != 50 || got.report.Count(OutcomeOK) != 49 || got.report.Count(OutcomePanicked) != 1 {
		t.Fatalf("outcomes %s over %d trials, want ok=49 panicked=1 over 50", got.report, got.report.Trials)
	}
	rep := reportOf(t, got.report, 5)
	if rep.Outcome != OutcomePanicked || rep.Err == nil || !strings.Contains(rep.Err.Error(), "trial called runtime.Goexit") {
		t.Fatalf("trial 5 report: outcome=%s err=%v", rep.Outcome, rep.Err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("trial that called Goexit retried: %d attempts", rep.Attempts)
	}
	checkGoroutinesBack(t, base, "a robust sweep with a trial that called runtime.Goexit")
}

// fakeViolator drives the safetyReporter classification path without
// needing a genuinely unsafe protocol.
type fakeViolator struct{ v error }

func (f fakeViolator) SafetyViolation() error { return f.v }

func TestRobustViolationClassification(t *testing.T) {
	violation := errors.New("agreement violated: 0 vs 1")
	report, err := RunTrialsRobust(
		Sweep{Trials: 4, Seed: 5},
		Resilience{},
		func(ctx context.Context, tr Trial) (fakeViolator, error) {
			if tr.Index == 1 {
				return fakeViolator{v: violation}, nil
			}
			return fakeViolator{}, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Violations() != 1 || report.Count(OutcomeOK) != 3 {
		t.Fatalf("outcomes %s, want ok=3 violated=1", report)
	}
	if rep := reportOf(t, report, 1); !errors.Is(rep.Err, violation) {
		t.Fatalf("violated trial err = %v", rep.Err)
	}
}

func TestRobustFailFastStopsSweep(t *testing.T) {
	violation := errors.New("validity violated")
	report, err := RunTrialsRobust(
		Sweep{Trials: 64, Seed: 5, Workers: 2},
		Resilience{FailFast: true},
		func(ctx context.Context, tr Trial) (fakeViolator, error) {
			if tr.Index == 3 {
				return fakeViolator{v: violation}, nil
			}
			// Slow the tail so the cancellation demonstrably cuts it off.
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
			return fakeViolator{}, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Violations() != 1 {
		t.Fatalf("violations = %d, want 1", report.Violations())
	}
	if !report.StoppedEarly {
		t.Fatal("FailFast sweep did not report StoppedEarly")
	}
	if report.Trials != 4 {
		t.Fatalf("FailFast classified %d trials, want the 4 up to and including the violation", report.Trials)
	}
}

// TestRobustRetryThenSuccess: unknown (infrastructure) errors are retried
// with backoff; a later clean attempt yields OutcomeOK.
func TestRobustRetryThenSuccess(t *testing.T) {
	var rep TrialReport
	report, err := RunTrialsRobust(
		Sweep{Trials: 1, Seed: 9, Workers: 1},
		Resilience{Retries: 2, Backoff: time.Millisecond},
		func() func(ctx context.Context, tr Trial) (int, error) {
			calls := 0
			return func(ctx context.Context, tr Trial) (int, error) {
				calls++
				if calls < 3 {
					return 0, fmt.Errorf("flaky infrastructure (call %d)", calls)
				}
				return 42, nil
			}
		}(), func(_ Trial, _ int, got TrialReport) { rep = got })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeOK || rep.Attempts != 3 || len(report.Reports) != 0 {
		t.Fatalf("outcome=%s attempts=%d with %d reports, want ok after 3 attempts and none", rep.Outcome, rep.Attempts, len(report.Reports))
	}
}

func TestRobustRetriesExhaustedFails(t *testing.T) {
	infra := errors.New("register file on fire")
	report, err := RunTrialsRobust(
		Sweep{Trials: 1, Seed: 9},
		Resilience{Retries: 1, Backoff: time.Millisecond},
		func(ctx context.Context, tr Trial) (int, error) { return 0, infra }, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reportOf(t, report, 0)
	if rep.Outcome != OutcomeFailed || rep.Attempts != 2 || !errors.Is(rep.Err, infra) {
		t.Fatalf("outcome=%s attempts=%d err=%v, want failed after 2 attempts", rep.Outcome, rep.Attempts, rep.Err)
	}
}

// TestRobustBackoffCancellation: cancelling the sweep while a trial sits in
// its retry backoff must return immediately with the cancellation error, not
// after the full (here deliberately enormous) backoff.
func TestRobustBackoffCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	infra := errors.New("transient infrastructure error")
	attempted := make(chan struct{})
	var once sync.Once
	go func() {
		// Cancel once the first attempt has failed and the trial is (about
		// to be) parked in its hour-long backoff.
		<-attempted
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunTrialsRobust(
		Sweep{Trials: 1, Seed: 5, Workers: 1, Context: ctx},
		Resilience{Retries: 3, Backoff: time.Hour},
		func(tctx context.Context, tr Trial) (int, error) {
			once.Do(func() { close(attempted) })
			return 0, infra // unknown error: triggers the retry backoff
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v: backoff is not context-aware", elapsed)
	}
}

// TestRobustCrashedShortClassification: crashing every process yields a
// completed execution with no deciders — crashed-short, not an error.
func TestRobustCrashedShortClassification(t *testing.T) {
	crashAll := fault.New(fault.Crash(fault.AllProcs, 2))
	report, err := RunTrialsRobust(
		Sweep{Trials: 3, Seed: 13},
		Resilience{Deadline: 5 * time.Second},
		func(ctx context.Context, tr Trial) (*ProtocolRun, error) {
			file, proto := robustProto(t, 4)
			return RunProtocol(proto, ObjectConfig{
				N: 4, File: file, Inputs: []value.Value{0, 1, 0, 1},
				Seed: tr.Seed, Scheduler: sched.NewUniformRandom(),
				Faults: crashAll, Context: ctx,
			})
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Count(OutcomeCrashedShort); got != 3 {
		t.Fatalf("crashed-short = %d, want 3 (report: %s)", got, report)
	}
}

// TestRobustStepLimitClassifiedCrashedShort: exhausting MaxSteps is a
// model-level verdict (crashed-short), never a retried infrastructure error.
func TestRobustStepLimitClassifiedCrashedShort(t *testing.T) {
	report, err := RunTrialsRobust(
		Sweep{Trials: 1, Seed: 17},
		Resilience{Retries: 3},
		func(ctx context.Context, tr Trial) (*ProtocolRun, error) {
			file, proto := robustProto(t, 4)
			return RunProtocol(proto, ObjectConfig{
				N: 4, File: file, Inputs: []value.Value{0, 1, 0, 1},
				Seed: tr.Seed, Scheduler: sched.NewUniformRandom(), MaxSteps: 5,
			})
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := reportOf(t, report, 0)
	if rep.Outcome != OutcomeCrashedShort || !errors.Is(rep.Err, exec.ErrStepLimit) {
		t.Fatalf("outcome=%s err=%v, want crashed-short wrapping ErrStepLimit", rep.Outcome, rep.Err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("step-limited trial retried: %d attempts", rep.Attempts)
	}
}

// TestRobustExternalCancellation: cancelling the sweep's own context drops
// in-flight trials (no outcome pollution) and surfaces the cancellation.
func TestRobustExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	report, err := RunTrialsRobust(
		Sweep{Trials: 100, Seed: 21, Workers: 2, Context: ctx},
		Resilience{Deadline: time.Minute},
		func(tctx context.Context, tr Trial) (int, error) {
			if tr.Index == 4 {
				cancel()
			}
			select {
			case <-tctx.Done():
				return 0, tctx.Err()
			case <-time.After(2 * time.Millisecond):
				return tr.Index, nil
			}
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !report.StoppedEarly {
		t.Fatal("cancelled sweep did not report StoppedEarly")
	}
	if report.Count(OutcomeTimeout) != 0 {
		t.Fatalf("sweep cancellation polluted aggregates with timeouts: %s", report)
	}
	if report.Trials >= 100 {
		t.Fatal("cancelled sweep classified every trial")
	}
}

// TestRobustCancelFoldsGapFreePrefix: a cancelled robust sweep has
// classified — and merged — exactly trials 0..k-1: the fold stops at the
// first trial the cancellation dropped and never reaches past it.
func TestRobustCancelFoldsGapFreePrefix(t *testing.T) {
	const trials, canceller = 200, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var merged []int
	report, err := RunTrialsRobust(
		Sweep{Trials: trials, Seed: 29, Workers: 3, Context: ctx},
		Resilience{},
		func(tctx context.Context, tr Trial) (int, error) {
			switch {
			case tr.Index == canceller:
				cancel()
			case tr.Index > canceller:
				// Later trials wait for the cancellation and are dropped.
				<-tctx.Done()
				return 0, tctx.Err()
			case tr.Index%2 == 1:
				// Odd earlier trials honour the cancellation if it lands
				// while they run; even ones always finish and classify ok.
				select {
				case <-tctx.Done():
					return 0, tctx.Err()
				case <-time.After(time.Millisecond):
				}
			}
			return tr.Index, nil
		},
		func(tr Trial, r int, rep TrialReport) { merged = append(merged, tr.Index) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !report.StoppedEarly || report.Trials == 0 || report.Trials > canceller+1 {
		t.Fatalf("classified %d trials (stoppedEarly=%v), want 1 to %d", report.Trials, report.StoppedEarly, canceller+1)
	}
	if len(merged) != report.Trials {
		t.Fatalf("%d merges for %d classified trials", len(merged), report.Trials)
	}
	for i, index := range merged {
		if index != i {
			t.Fatalf("merge %d is trial %d: not a gap-free prefix", i, index)
		}
	}
	// Dropped trials are never classified, so every classified one is ok.
	if report.Count(OutcomeOK) != report.Trials || len(report.Reports) != 0 {
		t.Errorf("outcomes %s with %d reports, want every classified trial ok and no report", report, len(report.Reports))
	}
}

// TestRobustReportsListNonOKTrials pins the reports contract: Counts
// tallies every classified trial, and Reports lists the non-ok ones only,
// in trial order. A sweep of 10⁵ ok trials keeps no report, and a mixed
// sweep at 3 workers lists exactly its violated, panicked and failed
// trials.
func TestRobustReportsListNonOKTrials(t *testing.T) {
	const ok = 100_000
	report, err := RunTrialsRobust(Sweep{Trials: ok, Workers: 2, Seed: 1}, Resilience{},
		func(ctx context.Context, tr Trial) (int, error) { return tr.Index, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Trials != ok || report.Count(OutcomeOK) != ok || len(report.Reports) != 0 {
		t.Fatalf("%d trials classified %s with %d reports, want %d ok and none", report.Trials, report, len(report.Reports), ok)
	}

	const trials = 300
	violation := errors.New("agreement violated")
	var want []string
	report, err = RunTrialsRobust(Sweep{Trials: trials, Workers: 3, Seed: 2}, Resilience{},
		func(ctx context.Context, tr Trial) (fakeViolator, error) {
			switch {
			case tr.Index%37 == 5:
				return fakeViolator{v: violation}, nil
			case tr.Index%53 == 7:
				panic("resilient_test: injected trial panic")
			case tr.Index%71 == 9:
				return fakeViolator{}, errors.New("resilient_test: infrastructure")
			}
			return fakeViolator{}, nil
		},
		func(tr Trial, _ fakeViolator, rep TrialReport) {
			if rep.Outcome != OutcomeOK {
				want = append(want, fmt.Sprintf("%d %s", tr.Index, rep.Outcome))
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rep := range report.Reports {
		got = append(got, fmt.Sprintf("%d %s", rep.Trial.Index, rep.Outcome))
	}
	if report.Trials != trials || report.Count(OutcomeOK) != trials-len(want) || len(want) != 19 {
		t.Fatalf("%d trials classified %s, %d non-ok merged; want %d trials, 19 of them non-ok", report.Trials, report, len(want), trials)
	}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("reports list\n%v\nwant the non-ok trials in order\n%v", got, want)
	}
}

// TestRobustMergeOrderDeterministic: merge sees trials in index order at any
// worker count, exactly like RunTrials.
func TestRobustMergeOrderDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var order []int
		_, err := RunTrialsRobust(
			Sweep{Trials: 16, Seed: 23, Workers: workers},
			Resilience{},
			func(ctx context.Context, tr Trial) (int, error) { return tr.Index, nil },
			func(tr Trial, r int, rep TrialReport) { order = append(order, r) })
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: merge order %v", workers, order)
			}
		}
	}
}

func TestSweepReportString(t *testing.T) {
	r := &SweepReport{Counts: map[TrialOutcome]int{
		OutcomeTimeout: 2, OutcomeOK: 98,
	}}
	if got := r.String(); got != "ok=98 timeout=2" {
		t.Fatalf("String() = %q", got)
	}
	empty := &SweepReport{Counts: map[TrialOutcome]int{}}
	if got := empty.String(); got != "empty" {
		t.Fatalf("empty String() = %q", got)
	}
}

// TestRobustAbandonsUnresponsiveTrial drives the watchdog's last resort: a
// trial that ignores cancellation past Resilience.Grace is classified
// timeout after one attempt and its goroutine abandoned, so the sweep
// returns without waiting for it. The abandoned goroutine exits once its
// trial finally returns.
func TestRobustAbandonsUnresponsiveTrial(t *testing.T) {
	settle := func() int {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	base := runtime.NumGoroutine()
	for prev := -1; base != prev; {
		prev, base = base, settle()
	}
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release)
		got := settle()
		for deadline := time.Now().Add(5 * time.Second); got > base && time.Now().Before(deadline); {
			got = settle()
		}
		if got > base {
			t.Errorf("%d goroutines after the abandoned trial returned, want at most the %d before", got, base)
		}
	})

	start := time.Now()
	report, err := RunTrialsRobust(Sweep{Trials: 4, Workers: 2, Seed: 3},
		Resilience{Deadline: 20 * time.Millisecond, Grace: 20 * time.Millisecond},
		func(ctx context.Context, tr Trial) (int, error) {
			if tr.Index == 1 {
				<-release // deaf to ctx
			}
			return tr.Index, nil
		}, nil)
	// Deadline plus Grace is 40ms; a watchdog that ignored Grace would
	// wait out the 1s default.
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("sweep returned after %v, want well under the 1s default grace", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if report.Trials != 4 || report.Count(OutcomeOK) != 3 || report.Count(OutcomeTimeout) != 1 {
		t.Fatalf("%d trials classified %s, want 4: ok=3 timeout=1", report.Trials, report)
	}
	rep := reportOf(t, report, 1)
	if rep.Outcome != OutcomeTimeout || rep.Attempts != 1 {
		t.Errorf("unresponsive trial: outcome %s after %d attempts, want timeout after 1", rep.Outcome, rep.Attempts)
	}
	if !errors.Is(rep.Err, ErrTrialDeadline) || !strings.Contains(fmt.Sprint(rep.Err), "goroutine abandoned") {
		t.Errorf("unresponsive trial error %v, want ErrTrialDeadline and \"goroutine abandoned\"", rep.Err)
	}
}

// costedTrial is a Metered trial result that may report a violation.
type costedTrial struct {
	fakeViolator
	steps, work int
}

func (c costedTrial) SweepCost() (steps, work int) { return c.steps, c.work }

// TestRobustHistogramsFoldOnlyOKTrials: a robust sweep's StepsHist and
// WorkHist meter the trials classified OK and no others, even when a
// violated or step-limited trial's result carries a cost.
func TestRobustHistogramsFoldOnlyOKTrials(t *testing.T) {
	violation := errors.New("agreement violated")
	s := Sweep{Trials: 12, Workers: 3, Seed: 5, StepsHist: &obs.Hist{}, WorkHist: &obs.Hist{}}
	var wantSteps, wantWork obs.Hist
	report, err := RunTrialsRobust(s, Resilience{},
		func(ctx context.Context, tr Trial) (costedTrial, error) {
			c := costedTrial{steps: 100 + 7*tr.Index, work: 3 + tr.Index}
			switch tr.Index % 4 {
			case 1:
				c.v = violation
			case 2:
				return c, exec.ErrStepLimit
			case 3:
				panic("resilient_test: injected trial panic")
			}
			return c, nil
		},
		func(tr Trial, c costedTrial, rep TrialReport) {
			if rep.Outcome == OutcomeOK {
				wantSteps.AddInt(c.steps)
				wantWork.AddInt(c.work)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []TrialOutcome{OutcomeOK, OutcomeViolated, OutcomeCrashedShort, OutcomePanicked} {
		if report.Count(o) != 3 {
			t.Fatalf("outcomes %s, want 3 of each of ok, violated, crashed-short and panicked", report)
		}
	}
	for _, h := range []struct {
		name      string
		got, want *obs.Hist
	}{{"steps", s.StepsHist, &wantSteps}, {"work", s.WorkHist, &wantWork}} {
		if h.got.N() != int64(report.Count(OutcomeOK)) {
			t.Errorf("%s histogram holds %d trials, want the %d ok ones", h.name, h.got.N(), report.Count(OutcomeOK))
		}
		got, err := json.Marshal(h.got)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(h.want)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s histogram differs from the ok trials' fold:\n%s\n%s", h.name, got, want)
		}
	}
}
