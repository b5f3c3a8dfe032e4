// Resilient trial engine.
//
// RunTrials (trials.go) treats any trial error as fatal to the sweep —
// the right contract for equivalence tests, where an error means the
// experiment itself is broken. Fault-injection sweeps invert that premise:
// trials are *expected* to crash short, livelock, or (if a bug slips in)
// violate safety, and the sweep's job is to keep going and report how many
// did what. RunTrialsRobust is the graceful-degradation engine for those
// sweeps: per-trial panic containment, a deadline watchdog that detects
// livelocked or stuck trials on either backend, bounded retry with
// exponential backoff for infrastructure failures, and per-trial outcome
// classification (ok | violated | timeout | panicked | crashed-short |
// failed) folded into partial aggregates instead of aborting the sweep.
//
// RunTrialsRobust runs on the same dispatcher as RunTrials (trials.go), so
// its determinism story carries over: trial seeds come from the same
// TrialSeed derivation, and reports are folded in trial-index order through
// the same reorder buffer, so per-outcome counts are reproducible at any
// worker count (wall-clock-dependent classifications — timeouts on a loaded
// machine — are the one unavoidable exception, and exactly what the
// deadline exists to bound). Only this policy wraps a trial in the
// watchdog/panic/retry attempt below; strict trials run inline on the
// worker, a panic failing the trial like any other error.
package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/modular-consensus/modcon/internal/exec"
)

// ErrTrialDeadline is the cancellation cause the watchdog attaches when a
// trial outlives Resilience.Deadline; backends wrap it into their
// cancellation error, so errors.Is identifies watchdog kills wherever they
// surface.
var ErrTrialDeadline = errors.New("harness: trial deadline exceeded")

// TrialOutcome classifies one trial of a robust sweep.
type TrialOutcome string

const (
	// OutcomeOK: the trial completed and its online safety monitor (if
	// any) observed no violation.
	OutcomeOK TrialOutcome = "ok"
	// OutcomeViolated: the trial's safety monitor observed an agreement or
	// validity violation — a bug, never bad luck.
	OutcomeViolated TrialOutcome = "violated"
	// OutcomeTimeout: the deadline watchdog killed a livelocked or stuck
	// trial (or the trial was unresponsive even to cancellation).
	OutcomeTimeout TrialOutcome = "timeout"
	// OutcomePanicked: the trial's execution panicked, or called
	// runtime.Goexit; the trial was contained and the sweep continued.
	OutcomePanicked TrialOutcome = "panicked"
	// OutcomeCrashedShort: the execution ended without any process
	// deciding (every process crashed, or the step limit cut it down).
	OutcomeCrashedShort TrialOutcome = "crashed-short"
	// OutcomeFailed: an infrastructure error persisted through every
	// retry.
	OutcomeFailed TrialOutcome = "failed"
)

// Resilience tunes the robust trial engine.
type Resilience struct {
	// Deadline is the per-trial watchdog: a trial still running after this
	// long is cancelled (cause ErrTrialDeadline) and classified
	// OutcomeTimeout. 0 disables the watchdog.
	Deadline time.Duration
	// Grace bounds how long the watchdog waits, after cancelling, for the
	// trial to acknowledge before abandoning its runner (a backend
	// honoring the Context contract acknowledges at its next operation
	// boundary). 0 means 1s.
	Grace time.Duration
	// Retries bounds re-attempts of a trial that failed with an unknown
	// (infrastructure) error. Model-level outcomes — violations, timeouts,
	// panics, step-limit exhaustion — are deterministic verdicts and are
	// never retried.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt. 0 means
	// 10ms.
	Backoff time.Duration
	// FailFast stops the sweep at the first safety violation by trial index
	// (in-flight trials are cancelled; the report covers every trial up to
	// and including the violation).
	FailFast bool
}

func (r Resilience) grace() time.Duration {
	if r.Grace <= 0 {
		return time.Second
	}
	return r.Grace
}

func (r Resilience) backoff() time.Duration {
	if r.Backoff <= 0 {
		return 10 * time.Millisecond
	}
	return r.Backoff
}

// TrialReport is the per-trial record of a robust sweep.
type TrialReport struct {
	// Trial is the trial's index and derived seed.
	Trial Trial
	// Outcome is the classification.
	Outcome TrialOutcome
	// Err explains any non-ok outcome (the violation, the watchdog kill,
	// the contained panic, ...); nil for OutcomeOK.
	Err error
	// Attempts counts executions of the trial (1 + retries used).
	Attempts int
}

// SweepReport aggregates a robust sweep: per-outcome counts plus the
// per-trial reports, in trial order. When the sweep is cut short (FailFast
// or external cancellation) the aggregates cover exactly the classified
// trials — partial but correct.
type SweepReport struct {
	// Trials counts classified trials (== len(Reports)).
	Trials int
	// Counts maps each observed outcome to its frequency.
	Counts map[TrialOutcome]int
	// Reports holds the per-trial records in trial-index order.
	Reports []TrialReport
	// StoppedEarly reports that the sweep ended before classifying every
	// trial (FailFast tripped, or the sweep context was cancelled).
	StoppedEarly bool
}

// Count returns the number of trials with the given outcome.
func (r *SweepReport) Count(o TrialOutcome) int { return r.Counts[o] }

// Violations returns the number of trials that violated safety.
func (r *SweepReport) Violations() int { return r.Counts[OutcomeViolated] }

// String renders the counts compactly ("ok=98 timeout=2"), in a fixed
// outcome order so reports are comparable.
func (r *SweepReport) String() string {
	s := ""
	for _, o := range []TrialOutcome{OutcomeOK, OutcomeViolated, OutcomeTimeout, OutcomePanicked, OutcomeCrashedShort, OutcomeFailed} {
		if n := r.Counts[o]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%d", o, n)
		}
	}
	if s == "" {
		s = "empty"
	}
	return s
}

// safetyReporter lets trial results surface an online safety violation to
// the classifier; *ProtocolRun implements it.
type safetyReporter interface{ SafetyViolation() error }

// shortReporter lets trial results report that the execution ended with no
// decision; *ProtocolRun implements it.
type shortReporter interface{ CutShort() bool }

// classify turns one attempt's (result, error) into a TrialOutcome, or ""
// for an unknown error that retry should handle. A safety violation
// dominates every other signal: a run that both violated and then timed
// out is a violated run.
func classify[T any](r T, err error) (TrialOutcome, error) {
	if sr, ok := any(r).(safetyReporter); ok {
		if v := sr.SafetyViolation(); v != nil {
			return OutcomeViolated, v
		}
	}
	if err == nil {
		if cs, ok := any(r).(shortReporter); ok && cs.CutShort() {
			return OutcomeCrashedShort, errors.New("harness: no process decided (execution cut short)")
		}
		return OutcomeOK, nil
	}
	if errors.Is(err, ErrTrialDeadline) || errors.Is(err, context.DeadlineExceeded) {
		return OutcomeTimeout, err
	}
	if errors.Is(err, exec.ErrStepLimit) {
		return OutcomeCrashedShort, err
	}
	return "", err
}

// attempts is a robust sweep's free list of idle attempt runners. An
// attempt takes one and puts it back once its run has returned, so the
// sweep keeps one runner per worker, plus a replacement for each runner
// whose run panicked, called Goexit or was abandoned, rather than starting
// a goroutine and a channel per attempt.
type attempts[T any] struct {
	run  func(context.Context, Trial) (T, error)
	idle chan *attempt[T] // one slot per worker: a worker holds one runner at a time
}

// attempt is a runner of a robust sweep with the attempt it runs.
type attempt[T any] struct {
	*runner
	do     func() // a.runTrial, bound once
	run    func(context.Context, Trial) (T, error)
	ctx    context.Context
	t      Trial
	result T
	err    error
}

func (a *attempt[T]) runTrial() { a.result, a.err = a.run(a.ctx, a.t) }

// get takes an idle runner, or starts one when none is idle.
func (as *attempts[T]) get() *attempt[T] {
	select {
	case a := <-as.idle:
		return a
	default:
		a := &attempt[T]{runner: newRunner(), run: as.run}
		a.do = a.runTrial
		return a
	}
}

// stop stops the idle runners. runRobust calls it once every worker has
// exited, so no runner comes back after it.
func (as *attempts[T]) stop() {
	close(as.idle)
	for a := range as.idle {
		a.stop()
	}
}

// runAttempt executes one attempt of a trial under the watchdog, on an idle
// runner of as, containing panics to the runner; a run that calls
// runtime.Goexit reports pan = errGoexit. abandoned reports the
// pathological case of a trial that ignored cancellation past the grace
// period — its runner is abandoned by design (there is no way to kill it),
// counted as a timeout, and exits once the trial returns, if ever: the leak
// is bounded by one goroutine per abandoned trial.
func runAttempt[T any](ctx context.Context, rz Resilience, t Trial, as *attempts[T]) (result T, err error, pan any, abandoned bool) {
	attemptCtx := ctx
	cancel := context.CancelFunc(func() {})
	if rz.Deadline > 0 {
		attemptCtx, cancel = context.WithTimeoutCause(ctx, rz.Deadline, ErrTrialDeadline)
	}
	defer cancel()

	a := as.get()
	a.ctx, a.t = attemptCtx, t
	a.start(a.do)
	select {
	case pan = <-a.done:
	case <-attemptCtx.Done():
		// Watchdog or sweep cancellation fired. A backend honoring the
		// Context contract acknowledges at its next operation boundary —
		// and a stalled process unwinds the moment the context does — so
		// wait a grace period for the attempt to come home.
		timer := time.NewTimer(rz.grace())
		defer timer.Stop()
		select {
		case pan = <-a.done:
		case <-timer.C:
			a.stop()
			return result, fmt.Errorf("%w (unresponsive to cancellation for %v; goroutine abandoned)", context.Cause(attemptCtx), rz.grace()), nil, true
		}
	}
	if pan != nil {
		return result, nil, pan, false // the runner has exited
	}
	result, err = a.result, a.err
	as.idle <- a
	return result, err, nil, false
}

// runRobustTrial drives one trial to a classification: attempts, watchdog,
// panic containment, bounded retry. dropped means the sweep was cancelled
// mid-trial and the trial should not be counted at all.
func runRobustTrial[T any](ctx context.Context, rz Resilience, t Trial, as *attempts[T]) (result T, rep TrialReport, dropped bool) {
	rep = TrialReport{Trial: t}
	backoff := rz.backoff()
	for attempt := 0; ; attempt++ {
		rep.Attempts = attempt + 1
		r, err, pan, abandoned := runAttempt(ctx, rz, t, as)
		if pan != nil {
			// A panic, or a call to runtime.Goexit, is a bug, hence
			// deterministic: contain it, report it, never retry it.
			rep.Outcome = OutcomePanicked
			rep.Err = fmt.Errorf("harness: trial panicked: %v", pan)
			if pan == errGoexit {
				rep.Err = fmt.Errorf("harness: %w", errGoexit)
			}
			return r, rep, false
		}
		if abandoned {
			rep.Outcome = OutcomeTimeout
			rep.Err = err
			return r, rep, false
		}
		outcome, cerr := classify(r, err)
		if outcome == OutcomeTimeout && ctx.Err() != nil && !errors.Is(err, ErrTrialDeadline) {
			// The sweep's own context (not the per-trial watchdog) killed
			// this attempt: the trial was never given its full deadline,
			// so counting it as a timeout would poison the aggregates.
			return r, rep, true
		}
		if outcome != "" {
			rep.Outcome = outcome
			rep.Err = cerr
			return r, rep, false
		}
		// Unknown error: infrastructure trouble, worth retrying — unless
		// the sweep is shutting down, which is indistinguishable from (and
		// usually the cause of) the failure.
		if ctx.Err() != nil {
			return r, rep, true
		}
		if attempt >= rz.Retries {
			rep.Outcome = OutcomeFailed
			rep.Err = fmt.Errorf("harness: trial failed after %d attempt(s): %w", attempt+1, err)
			return r, rep, false
		}
		// Context-aware backoff: a stoppable timer rather than time.After,
		// so cancellation mid-backoff returns immediately and releases the
		// timer instead of leaving it live for the full (doubling, possibly
		// long) backoff.
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return r, rep, true
		}
		backoff *= 2
	}
}

// RunTrialsRobust executes run for every trial of s like RunTrials, but
// degrades gracefully instead of aborting: each trial is classified
// (contained panics, watchdog timeouts, safety violations, short runs,
// retried-then-failed infrastructure errors) and the sweep always returns
// its partial aggregates. merge, which may be nil, receives every
// classified trial in trial-index order together with its report, one at a
// time on the workers, as under RunTrials; for non-ok outcomes the result
// may be partial or the zero value — consult rep.Outcome before trusting
// it. A sweep cut short (FailFast, or cancellation) has classified a
// gap-free prefix of its trials.
//
// The returned error is nil unless the sweep's own context was cancelled
// externally; violations and timeouts are reported, not returned.
func RunTrialsRobust[T any](s Sweep, rz Resilience, run func(ctx context.Context, t Trial) (T, error), merge func(t Trial, r T, rep TrialReport)) (*SweepReport, error) {
	return runRobust(s, rz, run, merge, nil)
}

// runRobust is RunTrialsRobust whose run, when pk is non-nil, returns
// results already parked in pk's buffers, which the fold hands back once
// consumed.
func runRobust[T any](s Sweep, rz Resilience, run func(ctx context.Context, t Trial) (T, error), merge func(t Trial, r T, rep TrialReport), pk parker[T]) (*SweepReport, error) {
	report := &SweepReport{Counts: make(map[TrialOutcome]int)}
	as := &attempts[T]{run: run, idle: make(chan *attempt[T], max(s.workers(), 0))}
	defer as.stop()
	err := dispatch(s, func(ctx context.Context, t Trial, fold func(outcome[T])) {
		r, rep, dropped := runRobustTrial(ctx, rz, t, as)
		fold(outcome[T]{trial: t, result: r, report: rep, dropped: dropped, parked: pk != nil})
	}, func(oc outcome[T], prog *tally) bool {
		report.Trials++
		report.Counts[oc.report.Outcome]++
		report.Reports = append(report.Reports, oc.report)
		if merge != nil {
			merge(oc.trial, oc.result, oc.report)
		}
		if oc.report.Outcome == OutcomeOK {
			s.meterCost(prog, any(oc.result))
		}
		prog.violations = report.Counts[OutcomeViolated]
		return !rz.FailFast || oc.report.Outcome != OutcomeViolated
	}, pk)
	if report.Trials < s.Trials {
		report.StoppedEarly = true
	}
	return report, err
}
