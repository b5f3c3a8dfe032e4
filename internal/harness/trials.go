// Parallel trial engine.
//
// Every quantitative claim the repo reproduces is regenerated by Monte-Carlo
// trials: many independent simulated executions whose per-trial metrics are
// folded into aggregate statistics. The executions are embarrassingly
// parallel — each one owns its register file, scheduler, and random streams —
// so one dispatcher fans them out over a worker pool sized to GOMAXPROCS.
// Two policies run on it: strict (RunTrials), where a trial error fails the
// sweep, and robust (RunTrialsRobust, resilient.go), where every trial is
// classified and the sweep keeps going.
//
// Determinism is preserved at any worker count:
//
//   - Each trial's seed is derived from the sweep's root seed by TrialSeed,
//     a pure function of (root, index). Workers pull trial indices from a
//     counter, so which worker runs a trial never affects what the trial
//     computes.
//   - Results are folded by a single merge step that consumes them in trial
//     order (a reorder buffer holds early out-of-order arrivals), so
//     floating-point accumulation in the caller's merge callback happens in
//     the same sequence regardless of scheduling. Same root seed ⇒
//     bit-identical aggregates at 1 worker or 16.
//
// Sweeps are cancellable: the sweep's context (plus any per-sweep error)
// stops both the dispatch of new trials and — because the derived context is
// threaded into the simulator via ObjectConfig.Context — the execution
// currently inside each worker, at its next scheduled step.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/obs"
)

// TrialSeed derives the seed of trial i from the sweep's root seed. It is a
// pure function (splitmix64-style finalizers over root and index), so a
// sweep's per-trial seeds are reproducible across machines, worker counts,
// and backends; distinct (root, index) pairs give statistically independent
// streams. The scheme is documented in README.md ("Reproducibility"). The
// derivation lives in internal/exec so every backend and driver shares it;
// this re-export keeps the harness API stable.
func TrialSeed(root uint64, i int) uint64 { return exec.TrialSeed(root, i) }

// Trial identifies one execution of a sweep.
type Trial struct {
	// Index is the trial number, 0 ≤ Index < Sweep.Trials.
	Index int
	// Seed is TrialSeed(root, Index) — the seed this trial's execution
	// must use so the sweep is reproducible.
	Seed uint64
}

// Progress snapshots a running sweep; the Sweep.Progress hook receives one
// after every merged trial, from the merge goroutine (no locking needed).
type Progress struct {
	// Done counts merged trials; Total is Sweep.Trials.
	Done, Total int
	// Steps accumulates simulated operations (total work) across merged
	// trials, and Work the per-trial max individual work, when the trial
	// result implements Metered; both stay 0 otherwise.
	Steps, Work int64
	// Violations counts trials classified as safety violations so far.
	// Only the resilient engine (RunTrialsRobust) classifies trials, so it
	// stays 0 under RunTrials.
	Violations int
	// Elapsed is wall time since the sweep started.
	Elapsed time.Duration
}

// Metered lets trial results contribute work accounting to Progress.
// *ObjectRun and *ProtocolRun implement it.
type Metered interface {
	// SweepCost reports the execution's total work and max individual work.
	SweepCost() (steps, work int)
}

// Sweep configures a family of independent trials.
type Sweep struct {
	// Trials is the number of executions; ≤ 0 runs nothing.
	Trials int
	// Workers caps concurrent trials; 0 means GOMAXPROCS.
	Workers int
	// Seed is the root seed; trial i runs with TrialSeed(Seed, i).
	Seed uint64
	// Offset shifts the sweep's trial indices: the Trials executions run
	// with global indices Offset..Offset+Trials-1 and seeds
	// TrialSeed(Seed, globalIndex). A sharded driver uses it to run a
	// contiguous slice of a larger seed space — each shard's aggregates
	// merge to exactly the unsharded sweep's, because every trial computes
	// the same thing wherever it runs. 0 is the unshifted sweep.
	Offset int
	// Arrivals, if non-nil, switches the sweep to open-loop admission: the
	// trial with global index g is dispatched no earlier than its arrival
	// time Arrivals[g] (nanoseconds of virtual time from sweep start, as
	// produced by an arrival-process generator). The slice is indexed by
	// GLOBAL trial index so a sharded slice passes the full schedule
	// unsliced; len(Arrivals) must be at least Offset+Trials and the
	// schedule must be non-decreasing over the sweep's span. Admission
	// affects only when trials start — never what they compute, nor the
	// in-order fold — so aggregates stay bit-identical with or without a
	// schedule, at any worker count.
	Arrivals []int64
	// Pace maps the virtual arrival schedule onto the wall clock: with
	// Pace > 0, trial g starts no earlier than Arrivals[g]/Pace
	// nanoseconds of wall time after the sweep begins (1 replays the
	// schedule in real time, 1000 a thousandfold faster). 0 — the default,
	// and the only deterministic-latency mode — admits in arrival order
	// without waiting; latency is then computed in virtual time by the
	// workload plane's service model. Ignored unless Arrivals is set.
	Pace float64
	// Context cancels the sweep: no new trials start and in-flight
	// simulated executions stop at their next step. Nil means Background.
	Context context.Context
	// Progress, if non-nil, is called after each merged trial.
	Progress func(Progress)
	// Reporter, if non-nil, receives throttled progress snapshots (trials
	// done, trials/sec, violations, ETA) after each merged trial plus a
	// final one when the fold completes. Build one with obs.NewReporter
	// over a text, JSON-lines, or silent sink.
	Reporter *obs.Reporter
	// StepsHist and WorkHist, if non-nil, accumulate per-trial total work
	// and max individual work for every merged trial whose result
	// implements Metered (under the resilient engine, only trials
	// classified OutcomeOK). They are fed from the single-goroutine merge
	// step in trial order, and obs.Hist holds only integer state, so the
	// aggregates are bit-identical at any worker count.
	StepsHist, WorkHist *obs.Hist
	// Meter, if non-nil, is threaded into each trial's execution by
	// SweepObject/SweepProtocol (via ObjectConfig.Meter), giving progress
	// sinks a live step count that moves inside long trials, not just when
	// trials finish. Callers driving RunTrials directly thread it into
	// their own ObjectConfigs.
	Meter *obs.Meter
}

// observe fans one merged-trial progress snapshot out to the sweep's hooks:
// the raw Progress callback on every merged trial, and the throttled
// Reporter (which additionally gets a final snapshot when the fold ends).
// When a Meter is attached its live step count — which includes in-flight
// trials — supersedes the merged-trials count for reporting.
func (s Sweep) observe(prog *Progress, start time.Time, final bool) {
	if s.Progress == nil && s.Reporter == nil {
		return
	}
	prog.Elapsed = time.Since(start)
	if s.Progress != nil && !final {
		s.Progress(*prog)
	}
	steps := prog.Steps
	if s.Meter != nil {
		steps = s.Meter.Steps()
	}
	s.Reporter.Observe(prog.Done, prog.Total, prog.Violations, steps, prog.Elapsed, final)
}

// meterCost feeds one merged trial's cost into the progress totals and the
// sweep's histograms, when the result is Metered.
func (s Sweep) meterCost(prog *Progress, result any) {
	m, ok := result.(Metered)
	if !ok {
		return
	}
	steps, work := m.SweepCost()
	prog.Steps += int64(steps)
	prog.Work += int64(work)
	if s.StepsHist != nil {
		s.StepsHist.AddInt(steps)
	}
	if s.WorkHist != nil {
		s.WorkHist.AddInt(work)
	}
}

func (s Sweep) workers() int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > s.Trials {
		w = s.Trials
	}
	return w
}

// trial materializes the sweep's i-th execution (0 ≤ i < Trials), applying
// the shard offset to both the index and the seed derivation.
func (s Sweep) trial(i int) Trial {
	return Trial{Index: s.Offset + i, Seed: TrialSeed(s.Seed, s.Offset+i)}
}

// admissionErr validates the open-loop arrival schedule against the sweep's
// span. It is checked once, before any trial runs, so a malformed schedule
// fails the sweep deterministically rather than mid-flight.
func (s Sweep) admissionErr() error {
	if s.Arrivals == nil {
		return nil
	}
	if need := s.Offset + s.Trials; len(s.Arrivals) < need {
		return fmt.Errorf("harness: arrival schedule has %d entries, need %d (offset %d + trials %d)",
			len(s.Arrivals), need, s.Offset, s.Trials)
	}
	if s.Pace < 0 {
		return fmt.Errorf("harness: negative pace %v", s.Pace)
	}
	for g := s.Offset + 1; g < s.Offset+s.Trials; g++ {
		if s.Arrivals[g] < s.Arrivals[g-1] {
			return fmt.Errorf("harness: arrival schedule decreases at index %d", g)
		}
	}
	return nil
}

// admit blocks until the trial's arrival time has passed on the paced wall
// clock; with no schedule or no pacing it returns immediately (admission is
// then order-only: the claim counter already dispatches in arrival order).
// Reports false when the sweep was cancelled while waiting.
func (s Sweep) admit(ctx context.Context, t Trial, sweepStart time.Time) bool {
	if s.Arrivals == nil || s.Pace <= 0 {
		return true
	}
	due := sweepStart.Add(time.Duration(float64(s.Arrivals[t.Index]) / s.Pace))
	wait := time.Until(due)
	if wait <= 0 {
		return true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// outcome carries one finished trial from its worker to the fold.
type outcome[T any] struct {
	trial  Trial
	result T
	// err fails the sweep at this trial (the strict policy).
	err error
	// report is the trial's classification (the robust policy).
	report TrialReport
	// dropped marks a trial the sweep's cancellation cut off before it
	// reached a verdict.
	dropped bool
}

// dispatch is the one trial dispatcher behind every sweep in this package.
// Workers take trial indices from a single claim counter, wait for
// open-loop admission, and run each trial inline through attempt; the
// calling goroutine folds the outcomes through consume in trial-index order,
// holding early arrivals in a reorder buffer. Everything consume accumulates
// is therefore bit-identical at any worker count.
//
// The fold stops at the first outcome that failed (err) or was dropped, or
// when consume returns false. Stopping cancels the in-flight trials, and the
// remaining outcomes are drained unread, so a sweep cut short has folded a
// gap-free prefix of its trials. A failed outcome also stops the claiming of
// new trials the moment it arrives, while the trials below it run on to
// their own verdicts: the failure reported is the earliest by trial index,
// whatever the timing.
//
// The returned error is the failed trial's, wrapped with its index, or else
// the sweep context's error (nil unless it was cancelled).
func dispatch[T any](s Sweep, attempt func(ctx context.Context, t Trial) outcome[T], consume func(oc outcome[T], prog *Progress) bool) error {
	if s.Trials <= 0 {
		return nil
	}
	if err := s.admissionErr(); err != nil {
		return err
	}
	parent := s.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	start := time.Now()
	workers := s.workers()
	// One slot per worker: a finished trial need not wait while the fold
	// merges the one before it.
	results := make(chan outcome[T], workers)
	var (
		next atomic.Int64 // sweep-local index of the next trial to claim
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= s.Trials {
					return
				}
				t := s.trial(i)
				oc := outcome[T]{trial: t, dropped: true}
				if s.admit(ctx, t, start) {
					oc = attempt(ctx, t)
				}
				if oc.err != nil {
					next.Store(int64(s.Trials)) // claim nothing more
				}
				// Every claimed trial reports in, so the fold sees a gap-free
				// index sequence; the fold drains until the channel closes, so
				// this send cannot block forever.
				results <- oc
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var (
		pending  = make(map[int]outcome[T], workers)
		nextFold = s.Offset // trial indices are global (shard offset applied)
		prog     = Progress{Total: s.Trials}
		stopped  bool
		failed   error
	)
	for oc := range results {
		if stopped {
			continue
		}
		pending[oc.trial.Index] = oc
		for !stopped {
			oc, ok := pending[nextFold]
			if !ok {
				break
			}
			delete(pending, nextFold)
			nextFold++
			switch {
			case oc.err != nil:
				failed = fmt.Errorf("harness: trial %d: %w", oc.trial.Index, oc.err)
				stopped = true
			case oc.dropped:
				stopped = true
			default:
				prog.Done++
				stopped = !consume(oc, &prog)
				s.observe(&prog, start, false)
			}
		}
		if stopped {
			cancel() // stop dispatch and in-flight executions
		}
	}
	s.observe(&prog, start, true)
	if failed != nil {
		return failed
	}
	return parent.Err()
}

// RunTrials executes run for every trial of s on a worker pool and folds the
// results, in trial order, through merge (which may be nil). run receives a
// context that is cancelled when the sweep is (thread it into the execution
// via ObjectConfig.Context). Each trial must be independent: either build
// all per-trial state fresh inside run, or — as SweepObject/SweepProtocol do
// — replay a pooled session whose reset restores every piece of state from
// the trial's seed. Each trial runs inline on its worker goroutine, and a
// trial that panics fails with the panic as its error rather than crashing
// the process from a goroutine the caller cannot recover.
//
// The first error — by trial index, which makes the failure deterministic
// too — stops the sweep and is returned; trials merged before it are
// unaffected. When the sweep's context is cancelled the context's error is
// returned.
func RunTrials[T any](s Sweep, run func(ctx context.Context, t Trial) (T, error), merge func(t Trial, r T)) error {
	return dispatch(s, func(ctx context.Context, t Trial) (oc outcome[T]) {
		oc.trial = t
		defer func() {
			if p := recover(); p != nil {
				oc.err = fmt.Errorf("panic: %v", p)
			}
		}()
		oc.result, oc.err = run(ctx, t)
		return oc
	}, func(oc outcome[T], prog *Progress) bool {
		if merge != nil {
			merge(oc.trial, oc.result)
		}
		s.meterCost(prog, any(oc.result))
		return true
	})
}

// SweepObject runs one object execution per trial on a pool of reusable
// sessions: spec.Build constructs the cell once per pooled session (at most
// once per worker), and each trial replays it with its own seed — on sim an
// in-place engine reset, allocation-free below the harness. Results are
// deep per-trial snapshots, merged in trial order; each trial equals a
// RunObject of the same cell at the trial's seed and inputs, at any worker
// count.
func SweepObject(s Sweep, spec ObjectSweep, merge func(t Trial, run *ObjectRun)) error {
	pool := newSessionPool[*ObjectRun](func() (*objectSession, error) {
		obj, cfg := spec.Build()
		cfg.Meter = s.Meter
		return newObjectSession(obj, cfg, spec.Inputs)
	})
	defer pool.closeAll()
	return RunTrials(s, pool.trial, merge)
}

// pool builds the session pool of a protocol sweep.
func (spec ProtocolSweep) pool(s Sweep) *sessionPool[*ProtocolRun, *protocolSession] {
	return newSessionPool[*ProtocolRun](func() (*protocolSession, error) {
		proto, cfg := spec.Build()
		cfg.Meter = s.Meter
		return newProtocolSession(proto, cfg, spec.Inputs)
	})
}

// SweepProtocol runs one protocol execution per trial on a pool of reusable
// sessions, like SweepObject. Per-process deciding stages are read from the
// run (ProtocolRun.DecidedStage), which snapshots them per trial; the pooled
// protocol instance's own DecidedStage follows whichever trial its session
// ran last.
func SweepProtocol(s Sweep, spec ProtocolSweep, merge func(t Trial, run *ProtocolRun)) error {
	pool := spec.pool(s)
	defer pool.closeAll()
	return RunTrials(s, pool.trial, merge)
}

// SweepProtocolRobust is SweepProtocol on the resilient trial engine
// (RunTrialsRobust): trials are classified instead of failing the sweep, and
// panic containment composes with pooling — a panicked attempt closes its
// session and a timed-out one abandons it, rather than returning it to the
// pool, so poisoned engine state is never reused.
func SweepProtocolRobust(s Sweep, rz Resilience, spec ProtocolSweep, merge func(t Trial, run *ProtocolRun, rep TrialReport)) (*SweepReport, error) {
	pool := spec.pool(s)
	defer pool.closeAll()
	return RunTrialsRobust(s, rz, pool.trial, merge)
}
