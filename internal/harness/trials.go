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
//   - Results are folded in trial order: the worker that finishes a trial
//     holds it in a reorder ring and, under one lock, folds every trial
//     that is now next by index. The callbacks (merge, the Reporter, the
//     histograms) therefore run one at a time, in trial order, on the
//     sweep's worker goroutines, and floating-point accumulation in the
//     caller's merge callback happens in the same sequence regardless of
//     scheduling. Same root seed ⇒ bit-identical aggregates at 1 worker or
//     16. A panic in a callback is raised again in the caller.
//   - The ring is bounded: a worker whose trial is a window (workers ×
//     reorderDepth trials) or more beyond the next trial to fold waits
//     for the fold before running it. So a sweep holds at most a window
//     of finished trials, however its workers are scheduled, and a trial
//     must not wait for a trial a window or more beyond it.
//
// Sweeps are cancellable: the sweep's context (plus any per-sweep error)
// stops both the dispatch of new trials and — because the derived context is
// threaded into the simulator via ObjectConfig.Context — the execution
// currently inside each worker, at its next scheduled step.
package harness

import (
	"context"
	"errors"
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

// tally is a running sweep's progress, as its Reporter observes it.
type tally struct {
	// done counts folded trials, and violations those the resilient engine
	// (RunTrialsRobust) classified as safety violations.
	done, violations int
	// steps accumulates the total work of folded trials whose result
	// implements Metered.
	steps int64
}

// Metered lets trial results contribute work accounting to a sweep's
// progress and histograms. *ObjectRun and *ProtocolRun implement it.
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
	// Context cancels the sweep: no new trials start and in-flight
	// simulated executions stop at their next step. Nil means Background.
	Context context.Context
	// Reporter, if non-nil, receives throttled progress snapshots (trials
	// done, trials/sec, violations, ETA) after each folded trial, from the
	// fold, plus a final one on the caller's goroutine once the workers
	// have exited. Build one with obs.NewReporter over a text, JSON-lines,
	// or silent sink.
	Reporter *obs.Reporter
	// StepsHist and WorkHist, if non-nil, accumulate per-trial total work
	// and max individual work for every folded trial whose result
	// implements Metered (under the resilient engine, only trials
	// classified OutcomeOK). The fold feeds them one trial at a time in
	// trial order, and obs.Hist holds only integer state, so the
	// aggregates are bit-identical at any worker count.
	StepsHist, WorkHist *obs.Hist
	// Meter, if non-nil, is threaded into each trial's execution by a
	// Pool's sweeps (via ObjectConfig.Meter; a pool keeps the Meter of its
	// first sweep), giving progress sinks a live step count that moves
	// inside long trials, not just when trials finish. Callers driving
	// RunTrials directly thread it into their own ObjectConfigs.
	Meter *obs.Meter
}

// observe reports the sweep's progress to its Reporter: after each folded
// trial, and once more (final) when the sweep ends. When a Meter is
// attached its live step count — which includes in-flight trials —
// supersedes the folded trials' count.
func (s Sweep) observe(t *tally, start time.Time, final bool) {
	if s.Reporter == nil {
		return
	}
	steps := t.steps
	if s.Meter != nil {
		steps = s.Meter.Steps()
	}
	s.Reporter.Observe(t.done, s.Trials, t.violations, steps, time.Since(start), final)
}

// meterCost feeds one folded trial's cost into the progress tally and the
// sweep's histograms, when the result is Metered.
func (s Sweep) meterCost(t *tally, result any) {
	m, ok := result.(Metered)
	if !ok {
		return
	}
	steps, work := m.SweepCost()
	t.steps += int64(steps)
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

// outcome is one finished trial, as the fold receives it.
type outcome[T any] struct {
	trial  Trial
	result T
	// err fails the sweep at this trial (the strict policy).
	err error
	// report is the trial's classification (the robust policy).
	report TrialReport
	// dropped marks a trial the sweep's cancellation cut off before it
	// reached a verdict (the robust policy).
	dropped bool
	// parked marks a result copied into a buffer of the sweep's parker,
	// which gets the buffer back once the fold has consumed or discarded
	// the result.
	parked bool
	// held marks an outcome waiting in the fold's reorder ring.
	held bool
}

// parker keeps the session-owned results of a pooled sweep that must wait
// for the fold: park copies one into a buffer of its own, and unpark takes
// the buffer back after the fold has consumed the copy. It also keeps the
// fold's reorder ring across its sweeps: ring returns where the ring lives.
// *Pool implements it.
type parker[T any] interface {
	park(T) T
	unpark(T)
	ring() *[]outcome[T]
}

// reorderDepth is how many trials per worker a sweep may run ahead of its
// fold: the reorder window is workers × reorderDepth trials.
const reorderDepth = 16

// errGoexit is the error of a trial whose function called runtime.Goexit
// instead of returning.
var errGoexit = errors.New("trial called runtime.Goexit")

// dispatch is the one trial dispatcher behind every sweep in this package.
// It starts no goroutine but the sweep's workers (a robust sweep keeps a
// runner per worker for its attempts), and returns only after they have
// all exited. Workers take trial indices from a single claim counter and
// run each trial inline through attempt, which hands its outcome to fold
// exactly once and does nothing after that fold that could panic. Holding
// the fold's lock, fold passes consume the outcome if it is next in
// trial-index order, and then every held outcome that is now next; an
// outcome that is not next is held in a reorder ring. consume and the
// Reporter therefore run one at a time and in trial order, so everything
// they accumulate is bit-identical at any worker count. They run under
// that lock, so a callback must not wait for another trial of its own
// sweep.
//
// The ring bounds how far the workers run ahead: it has one slot per trial
// of the reorder window, workers × reorderDepth trials from the next trial
// to fold, and a worker that claims a trial a window or more ahead waits,
// before running it, until the fold comes within the window or stops. So a
// trial must not wait for a trial a window or more beyond it. A trial
// that waited does not start if the sweep was cancelled meanwhile: its
// worker folds it as dropped, which stops the fold there rather than leave
// a gap that a worker further ahead would wait on. The ring is allocated,
// in one piece, when an outcome first has to wait; a parker keeps it
// across its sweeps, and a sweep leaves it empty, however it ends.
//
// A pooled sweep's attempt calls fold while its session is still checked
// out, so the run that is next is consumed in place, in the session's own
// buffers. A run that has to wait is parked as a copy: pk, when non-nil,
// copies it into a buffer and takes the buffer back once the run is
// consumed or discarded. Results that arrive already parked (the robust
// pooled sweep's) are kept as they are.
//
// The fold stops at the first outcome that failed (err) or was dropped, or
// when consume returns false. Stopping cancels the in-flight trials, whose
// outcomes are then discarded unread, so a sweep cut short has folded a
// gap-free prefix of its trials. A failed outcome also stops the claiming
// of new trials the moment it is folded, while the trials below it run on
// to their own verdicts: the failure reported is the earliest by trial
// index, whatever the timing.
//
// An attempt that panics or calls runtime.Goexit before its fold ends its
// worker, which first folds the trial as failed with the panic or
// errGoexit, so the fold never waits for it. A callback under the fold
// that panics or calls runtime.Goexit stops the fold in the same way. Once
// every worker has exited, dispatch raises that panic again, or calls
// Goexit, on the caller's goroutine, with no final report.
//
// The returned error is the failed trial's, wrapped with its index, or else
// the sweep context's error (nil unless it was cancelled).
func dispatch[T any](s Sweep, attempt func(ctx context.Context, t Trial, fold func(outcome[T])), consume func(oc outcome[T], prog *tally) bool, pk parker[T]) error {
	if s.Trials <= 0 {
		return nil
	}
	parent := s.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	start := time.Now()
	workers := s.workers()
	window := workers * reorderDepth // the reorder window, in trials
	var (
		next atomic.Int64 // sweep-local index of the next trial to claim
		wg   sync.WaitGroup

		mu       sync.Mutex          // the fold's lock, over everything below
		moved    = sync.Cond{L: &mu} // broadcast when the fold advances or stops
		ring     []outcome[T]        // window slots; nil until an outcome first has to wait
		nextFold = s.Offset          // trial indices are global (shard offset applied)
		prog     tally
		stopped  bool
		failed   error
		raised   bool // a callback panicked or called Goexit
		pan      any  // the panic's value; nil for Goexit
	)
	// await waits while trial index is a window or more beyond the fold,
	// and reports whether to run it: not once the fold has stopped, nor
	// when the sweep was cancelled while it waited.
	await := func(index int) bool {
		mu.Lock()
		defer mu.Unlock()
		waited := false
		for ; !stopped && index >= nextFold+window; waited = true {
			moved.Wait()
		}
		return !stopped && !(waited && ctx.Err() != nil)
	}
	// fold consumes oc if it is next, then every held outcome now next in
	// trial order; an oc that is not next is held in the ring. A callback
	// that does not return stops the fold before the lock is released, so
	// no later trial reaches consume.
	fold := func(oc outcome[T]) {
		if oc.err != nil {
			next.Store(int64(s.Trials)) // claim nothing more
		}
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			if oc.parked {
				pk.unpark(oc.result)
			}
			return
		}
		if oc.trial.Index != nextFold {
			if pk != nil && !oc.parked {
				oc.result, oc.parked = pk.park(oc.result), true
			}
			if ring == nil { // the first outcome to wait: take the kept ring
				kept := &ring
				if pk != nil {
					kept = pk.ring()
				}
				if len(*kept) < window {
					*kept = make([]outcome[T], window)
				}
				ring = (*kept)[:window]
			}
			oc.held = true
			ring[(oc.trial.Index-s.Offset)%window] = oc
			return
		}
		returned := false
		defer func() {
			if !returned {
				stopped, raised, pan = true, true, recover()
			}
			if stopped {
				cancel() // stop dispatch and in-flight executions
			}
			moved.Broadcast()
		}()
		for ok := true; ok && !stopped; oc, ok = take(ring, nextFold-s.Offset) {
			nextFold++
			switch {
			case oc.err != nil:
				failed = fmt.Errorf("harness: trial %d: %w", oc.trial.Index, oc.err)
				stopped = true
			case oc.dropped:
				stopped = true
			default:
				prog.done++
				stopped = !consume(oc, &prog)
				s.observe(&prog, start, false)
			}
			if oc.parked {
				pk.unpark(oc.result)
			}
		}
		returned = true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t Trial
			attempting := false
			// An attempt that panics or calls Goexit is folded here as
			// failed. One that ends that way after its fold did so
			// because a callback under the fold called Goexit, which
			// stopped the fold: folding the trial again does nothing.
			defer func() {
				if attempting {
					err := errGoexit
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
					fold(outcome[T]{trial: t, err: err})
				}
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= s.Trials {
					return
				}
				if t = s.trial(i); !await(t.Index) {
					// The trial does not start; folded as dropped, it
					// stops the fold, so no worker waits for it.
					fold(outcome[T]{trial: t, dropped: true})
					return
				}
				attempting = true
				attempt(ctx, t, fold)
				attempting = false
			}
		}()
	}
	wg.Wait()
	for _, oc := range ring {
		if oc.parked {
			pk.unpark(oc.result) // the outcomes a sweep cut short left held
		}
	}
	clear(ring)
	if raised {
		if pan == nil {
			runtime.Goexit() // the callback called Goexit; so does the caller
		}
		panic(pan)
	}
	s.observe(&prog, start, true)
	if failed != nil {
		return failed
	}
	return parent.Err()
}

// take empties the slot of ring that trial offset i maps to, returning the
// outcome it held, if any. A nil ring holds none.
func take[T any](ring []outcome[T], i int) (oc outcome[T], ok bool) {
	if ring != nil {
		slot := &ring[i%len(ring)]
		oc, *slot = *slot, outcome[T]{}
	}
	return oc, oc.held
}

// RunTrials executes run for every trial of s on a worker pool and folds the
// results, in trial order, through merge (which may be nil). merge runs on
// the workers, one trial at a time, and a panic in it is raised again in
// the caller once the workers have exited (see dispatch). run receives a
// context that is cancelled when the sweep is (thread it into the execution
// via ObjectConfig.Context). Each trial must be independent: either build
// all per-trial state fresh inside run, or — as SweepObject/SweepProtocol do
// — replay a pooled session whose reset restores every piece of state from
// the trial's seed. Each trial runs inline on its worker goroutine, and a
// trial that panics fails with the panic as its error rather than crashing
// the process from a goroutine the caller cannot recover; one that calls
// runtime.Goexit (t.Fatal, say) fails with errGoexit.
//
// The first error — by trial index, which makes the failure deterministic
// too — stops the sweep and is returned; trials merged before it are
// unaffected. When the sweep's context is cancelled the context's error is
// returned.
func RunTrials[T any](s Sweep, run func(ctx context.Context, t Trial) (T, error), merge func(t Trial, r T)) error {
	return runStrict(s, func(ctx context.Context, t Trial, fold func(outcome[T])) {
		r, err := run(ctx, t)
		fold(outcome[T]{trial: t, result: r, err: err})
	}, merge, nil)
}

// runStrict is the strict policy on dispatch: trial hands each outcome to
// its fold, and merge receives every trial's result in order.
func runStrict[T any](s Sweep, trial func(ctx context.Context, t Trial, fold func(outcome[T])), merge func(t Trial, r T), pk parker[T]) error {
	return dispatch(s, trial, func(oc outcome[T], prog *tally) bool {
		if merge != nil {
			merge(oc.trial, oc.result)
		}
		s.meterCost(prog, any(oc.result))
		return true
	}, pk)
}

// SweepObject runs one object execution per trial of s on a fresh pool of
// spec's sessions and closes the pool: Pool.Sweep, with the adversary each
// session's Build makes. spec.Build constructs the cell once per session
// (at most once per worker), and each trial replays it with its own seed —
// on sim an in-place engine reset, allocation-free below the harness. A run
// merge receives is valid only during that merge call (see Pool.Sweep).
func SweepObject(s Sweep, spec ObjectSweep, merge func(t Trial, run *ObjectRun)) error {
	pool := NewObjectPool(spec)
	defer pool.Close()
	return pool.Sweep(s, nil, merge)
}

// SweepProtocol is SweepObject for a protocol cell. Per-process deciding
// stages are read from the run (ProtocolRun.DecidedStage), which records
// them per trial; the pooled protocol instance's own DecidedStage follows
// whichever trial its session ran last.
func SweepProtocol(s Sweep, spec ProtocolSweep, merge func(t Trial, run *ProtocolRun)) error {
	pool := NewProtocolPool(spec)
	defer pool.Close()
	return pool.Sweep(s, nil, merge)
}

// SweepProtocolRobust is SweepProtocol on the resilient trial engine
// (RunTrialsRobust): trials are classified instead of failing the sweep, and
// panic containment composes with pooling — a panicked attempt closes its
// session and a timed-out one abandons it, rather than returning it to the
// pool, so poisoned engine state is never reused. Each attempt parks a copy
// of its run before its session goes back, and merge sees that copy, valid
// only during the merge call as under SweepProtocol.
func SweepProtocolRobust(s Sweep, rz Resilience, spec ProtocolSweep, merge func(t Trial, run *ProtocolRun, rep TrialReport)) (*SweepReport, error) {
	pool := NewProtocolPool(spec)
	defer pool.Close()
	if err := pool.begin(s, nil); err != nil {
		return nil, err
	}
	return runRobust(s, rz, pool.parkedTrial, merge, pool)
}
