package harness

// Tests for the pooled-session layer: a panicked trial must abandon its
// checked-out session (never return it to the pool), the sweep must finish
// on fresh sessions, and — with a retry budget — the final aggregates must
// be bit-identical to a panic-free run, because trial outcomes are pure
// functions of (spec, seed) no matter which session executes them.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// poolConsensusSpec is the consensusAggregate workload with an optional
// per-trial hook spliced into the Inputs callback — the injection point for
// panics that a pooled session is mid-trial for.
func poolConsensusSpec(t *testing.T, n int, hook func(tr Trial)) ProtocolSweep {
	t.Helper()
	return ProtocolSweep{
		Build: func() (*core.Protocol, ObjectConfig) {
			file := register.NewFile()
			proto, err := recipe.Spec{N: n, M: 2, FastPath: true}.Build(file)
			if err != nil {
				t.Fatal(err)
			}
			return proto, ObjectConfig{N: n, File: file, Inputs: []value.Value{0}, Scheduler: sched.NewUniformRandom()}
		},
		Inputs: func(tr Trial) []value.Value {
			if hook != nil {
				hook(tr)
			}
			inputs := make([]value.Value, n)
			for p := range inputs {
				inputs[p] = value.Value((p + tr.Index) % 2)
			}
			return inputs
		},
	}
}

// cellObjectSpec is a single impatient-conciliator cell with mixed
// per-trial inputs; mut seasons its configuration.
func cellObjectSpec(n int, mut func(cfg *ObjectConfig)) ObjectSweep {
	return ObjectSweep{
		Build: func() (core.Object, ObjectConfig) {
			file := register.NewFile()
			cfg := ObjectConfig{N: n, File: file, Inputs: []value.Value{0}, Scheduler: sched.NewUniformRandom()}
			if mut != nil {
				mut(&cfg)
			}
			return conciliator.NewImpatient(file, n, 1), cfg
		},
		Inputs: func(tr Trial) []value.Value {
			inputs := make([]value.Value, n)
			for p := range inputs {
				inputs[p] = value.Value((p + tr.Index) % 2)
			}
			return inputs
		},
	}
}

// cellProtocolSpec is poolConsensusSpec with its configuration seasoned by
// mut.
func cellProtocolSpec(t *testing.T, n int, mut func(cfg *ObjectConfig)) ProtocolSweep {
	spec := poolConsensusSpec(t, n, nil)
	build := spec.Build
	spec.Build = func() (*core.Protocol, ObjectConfig) {
		proto, cfg := build()
		if mut != nil {
			mut(&cfg)
		}
		return proto, cfg
	}
	return spec
}

// sameResult reports whether two executions agree on everything but the
// trace pointer (callers compare traces by their events).
func sameResult(got, want *exec.Result) bool {
	g, w := *got, *want
	g.Trace, w.Trace = nil, nil
	return reflect.DeepEqual(g, w)
}

// TestSweepMatchesFreshRuns pins pooling as invisible for every knob that
// reaches a pooled session: under tracing, metering, either fault form, each
// register model, and a shard offset, every trial of a multi-worker object
// or protocol sweep equals a fresh RunObject/RunProtocol of the same cell at
// the trial's seed and inputs — the result, decisions, and trace events —
// and after the fresh RunProtocol the protocol's own DecidedStage agrees
// with the run's.
func TestSweepMatchesFreshRuns(t *testing.T) {
	const n, trials = 4, 10
	cells := []struct {
		name    string
		offset  int
		metered bool
		mut     func(cfg *ObjectConfig)
	}{
		{name: "plain"},
		{name: "offset", offset: 7},
		{name: "traced", mut: func(cfg *ObjectConfig) { cfg.Traced = true }},
		{name: "metered", metered: true},
		{name: "crash-map", mut: func(cfg *ObjectConfig) { cfg.CrashAfter = map[int]int{0: 5} }},
		{name: "fault-plan", mut: func(cfg *ObjectConfig) { cfg.Faults = fault.New(fault.Crash(0, 30), fault.LoseCoin(1, 1, 2)) }},
		{name: "regular-registers", mut: func(cfg *ObjectConfig) { cfg.Registers = register.Regular }},
		{name: "interposed-registers", mut: func(cfg *ObjectConfig) { cfg.Registers = register.Interposed }},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			sweep := func() (Sweep, *obs.Meter) {
				s := Sweep{Trials: trials, Offset: c.offset, Workers: 3, Seed: 5}
				if c.metered {
					s.Meter = new(obs.Meter)
				}
				return s, s.Meter
			}
			// steps sums the folded trials' total work; an attached meter
			// must have counted exactly that many operations.
			checkMeter := func(m *obs.Meter, steps int64) {
				if m != nil && m.Steps() != steps {
					t.Errorf("meter counted %d steps, folded trials total %d", m.Steps(), steps)
				}
			}

			ospec := cellObjectSpec(n, c.mut)
			s, m := sweep()
			var steps int64
			folded := 0
			err := SweepObject(s, ospec, func(tr Trial, run *ObjectRun) {
				folded++
				steps += int64(run.Result.TotalWork)
				obj, cfg := ospec.Build()
				cfg.Seed, cfg.Inputs = tr.Seed, ospec.Inputs(tr)
				want, err := RunObject(obj, cfg)
				if err != nil {
					t.Errorf("trial %d: fresh object run: %v", tr.Index, err)
					return
				}
				if !sameResult(run.Result, want.Result) || !reflect.DeepEqual(run.Decisions, want.Decisions) ||
					!reflect.DeepEqual(run.Trace.Events(), want.Trace.Events()) {
					t.Errorf("trial %d: pooled object trial diverged from a fresh run", tr.Index)
				}
				if (run.Trace.Len() > 0) != cfg.Traced {
					t.Errorf("trial %d: object trace has %d events with Traced=%v", tr.Index, run.Trace.Len(), cfg.Traced)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if folded != trials {
				t.Fatalf("object sweep folded %d trials, want %d", folded, trials)
			}
			checkMeter(m, steps)

			pspec := cellProtocolSpec(t, n, c.mut)
			s, m = sweep()
			steps, folded = 0, 0
			err = SweepProtocol(s, pspec, func(tr Trial, run *ProtocolRun) {
				folded++
				steps += int64(run.Result.TotalWork)
				proto, cfg := pspec.Build()
				cfg.Seed, cfg.Inputs = tr.Seed, pspec.Inputs(tr)
				want, err := RunProtocol(proto, cfg)
				if err != nil {
					t.Errorf("trial %d: fresh protocol run: %v", tr.Index, err)
					return
				}
				if !sameResult(run.Result, want.Result) || !reflect.DeepEqual(run.Decided, want.Decided) ||
					!reflect.DeepEqual(run.DecidedIdx, want.DecidedIdx) || run.Violation != nil || want.Violation != nil ||
					!reflect.DeepEqual(run.Trace.Events(), want.Trace.Events()) {
					t.Errorf("trial %d: pooled protocol trial diverged from a fresh run", tr.Index)
				}
				// RunProtocol leaves the protocol's own instrumentation
				// agreeing with the run's per-trial snapshot.
				for pid := 0; pid < n; pid++ {
					ps, pf := proto.DecidedStage(pid)
					if rs, rf := run.DecidedStage(pid); ps != rs || pf != rf {
						t.Errorf("trial %d pid %d: protocol DecidedStage (%d, %v), run DecidedStage (%d, %v)",
							tr.Index, pid, ps, pf, rs, rf)
					}
				}
				if (run.Trace.Len() > 0) != cfg.Traced {
					t.Errorf("trial %d: protocol trace has %d events with Traced=%v", tr.Index, run.Trace.Len(), cfg.Traced)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if folded != trials {
				t.Fatalf("protocol sweep folded %d trials, want %d", folded, trials)
			}
			checkMeter(m, steps)
		})
	}
}

// TestRobustSweepAfterStepLimitMatchesFreshRuns: a pooled session whose
// last trial ran out of steps, leaving its processes parked mid-protocol,
// starts its next trial clean. Every trial of a robust protocol sweep under
// a small step budget equals a fresh RunProtocol of the same cell at the
// trial's seed and inputs: whether it hit the limit, its result, and which
// processes decided at which index.
func TestRobustSweepAfterStepLimitMatchesFreshRuns(t *testing.T) {
	const n, trials = 4, 24
	spec := cellProtocolSpec(t, n, func(cfg *ObjectConfig) { cfg.MaxSteps = 40 })
	for _, workers := range []int{1, 3} {
		limited, finished := 0, 0
		_, err := SweepProtocolRobust(Sweep{Trials: trials, Workers: workers, Seed: 5}, Resilience{}, spec,
			func(tr Trial, run *ProtocolRun, rep TrialReport) {
				if run == nil {
					t.Errorf("workers=%d trial %d: %s: %v", workers, tr.Index, rep.Outcome, rep.Err)
					return
				}
				hit := errors.Is(rep.Err, exec.ErrStepLimit)
				if hit {
					limited++
				} else {
					finished++
				}
				proto, cfg := spec.Build()
				cfg.Seed, cfg.Inputs = tr.Seed, spec.Inputs(tr)
				want, err := RunProtocol(proto, cfg)
				if freshHit := errors.Is(err, exec.ErrStepLimit); freshHit != hit || (err != nil && !freshHit) {
					t.Errorf("workers=%d trial %d: pooled report %v, fresh run error %v", workers, tr.Index, rep.Err, err)
					return
				}
				if !sameResult(run.Result, want.Result) || !reflect.DeepEqual(run.Decided, want.Decided) ||
					!reflect.DeepEqual(run.DecidedIdx, want.DecidedIdx) {
					t.Errorf("workers=%d trial %d (step limit hit: %v): pooled trial diverged from a fresh run", workers, tr.Index, hit)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("workers=%d: %d trials hit the step limit, %d finished", workers, limited, finished)
		if limited == 0 || finished == 0 {
			t.Fatal("want trials of each kind")
		}
	}
}

// TestPoolDiscardsSessionAfterPanic is the poisoning contract end to end:
// a panic during a pooled trial closes that session (it is never returned
// to the pool), the panicked trial is classified — panics are deterministic
// bugs and deliberately not retried — and every other trial of the sweep
// runs on clean sessions with results bit-identical to a panic-free run.
func TestPoolDiscardsSessionAfterPanic(t *testing.T) {
	const n, trials, victim = 8, 32, 7
	type agg struct {
		decided int
		works   [trials]int
	}
	sweep := func(hook func(tr Trial)) (agg, *SweepReport) {
		var a agg
		report, err := SweepProtocolRobust(
			Sweep{Trials: trials, Workers: 4, Seed: 99},
			Resilience{},
			poolConsensusSpec(t, n, hook),
			func(tr Trial, run *ProtocolRun, rep TrialReport) {
				if rep.Outcome != OutcomeOK {
					return
				}
				a.works[tr.Index] = run.Result.TotalWork
				if len(run.DecidedOutputs()) == n {
					a.decided++
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		return a, report
	}

	baseline, ref := sweep(nil)
	if got := ref.Count(OutcomeOK); got != trials {
		t.Fatalf("baseline counted %d ok trials, want %d: %s", got, trials, ref)
	}

	// Panic mid-sweep, on one trial. The trial has already checked a session
	// out of the pool when the hook runs, so the panic closes that session
	// instead of returning it; every subsequent trial must get another (or a
	// fresh) session and be unaffected.
	poisoned, report := sweep(func(tr Trial) {
		if tr.Index == victim {
			panic("session_test: injected trial panic")
		}
	})
	if got := report.Count(OutcomePanicked); got != 1 {
		t.Fatalf("report counted %d panicked trials, want 1: %s", got, report)
	}
	if got := report.Count(OutcomeOK); got != trials-1 {
		t.Fatalf("report counted %d ok trials, want %d: %s", got, trials-1, report)
	}
	for i := 0; i < trials; i++ {
		if i == victim {
			continue
		}
		if poisoned.works[i] != baseline.works[i] {
			t.Errorf("trial %d work diverged after an unrelated panic: %d != %d",
				i, poisoned.works[i], baseline.works[i])
		}
	}
	if poisoned.decided != baseline.decided-1 && poisoned.decided != baseline.decided {
		t.Errorf("decision tally %d inconsistent with baseline %d minus the panicked trial",
			poisoned.decided, baseline.decided)
	}
}

// panicAtStep is an adversary that panics at its step-th choice of every
// execution, while the other processes are parked mid-protocol.
type panicAtStep struct {
	sched.Scheduler
	step, taken int
}

func (p *panicAtStep) Seed(src *xrand.Source) {
	p.taken = 0
	p.Scheduler.Seed(src)
}

func (p *panicAtStep) Next(v *sched.View) int {
	if p.taken++; p.taken == p.step {
		panic("session_test: injected scheduler panic")
	}
	return p.Scheduler.Next(v)
}

// TestPoolClosesPanickedSessions: a session whose trial panics mid-execution
// holds parked processes, which are goroutines. The pool closes it as the
// panic leaves the trial, so strict and robust sweeps whose every trial
// panics leave the goroutine count where it was.
func TestPoolClosesPanickedSessions(t *testing.T) {
	const n, trials = 8, 16
	spec := cellProtocolSpec(t, n, func(cfg *ObjectConfig) {
		cfg.Scheduler = &panicAtStep{Scheduler: cfg.Scheduler, step: 40}
	})
	// Robust attempt goroutines exit just after the sweep returns, so counts
	// are read after a pause; the baseline waits for earlier tests' to settle.
	settle := func() int {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	base := runtime.NumGoroutine()
	for prev := -1; base != prev; {
		prev, base = base, settle()
	}
	for round := 0; round < 10; round++ {
		s := Sweep{Trials: trials, Workers: 4, Seed: uint64(round)}
		if err := SweepProtocol(s, spec, nil); err == nil {
			t.Fatal("strict sweep: want the injected panic as its error")
		}
		report, err := SweepProtocolRobust(s, Resilience{}, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := report.Count(OutcomePanicked); got != trials {
			t.Fatalf("robust sweep counted %d panicked trials, want %d: %s", got, trials, report)
		}
	}
	got := settle()
	for deadline := time.Now().Add(5 * time.Second); got > base && time.Now().Before(deadline); {
		got = settle()
	}
	if got > base {
		t.Errorf("%d goroutines after 10 rounds of panicking sweeps, want at most the %d before", got, base)
	}
}

// countingCell is a pooled session that only counts its closes.
type countingCell struct{ closes int }

func (c *countingCell) runTrial(context.Context, Trial) (*ObjectRun, error) { return nil, nil }
func (c *countingCell) close()                                              { c.closes++ }

// TestPoolLatePutClosesSession: closeAll closes the free sessions, and a
// session put back after it — by an attempt that outlived its sweep — is
// closed instead of returning to the free list.
func TestPoolLatePutClosesSession(t *testing.T) {
	p := newSessionPool[*ObjectRun](func() (*countingCell, error) { return &countingCell{}, nil })
	idle, _ := p.get()
	late, _ := p.get()
	p.put(idle)
	p.closeAll()
	if idle.closes != 1 || late.closes != 0 {
		t.Fatalf("closeAll: free session closed %d times, checked-out one %d; want 1 and 0", idle.closes, late.closes)
	}
	p.put(late)
	if late.closes != 1 || len(p.free) != 0 {
		t.Fatalf("late put: session closed %d times with %d free; want 1 and 0", late.closes, len(p.free))
	}
}
