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

// checkObjectRun fails t unless run, trial tr of a sweep of spec, equals a
// fresh RunObject of the cell at the trial's seed and inputs: the result,
// decisions and trace events. A non-nil ctx ends the fresh run (a stalled
// trial ends only that way), so its error is expected and not checked.
func checkObjectRun(t *testing.T, ctx context.Context, spec ObjectSweep, tr Trial, run *ObjectRun) {
	t.Helper()
	obj, cfg := spec.Build()
	cfg.Seed, cfg.Inputs, cfg.Context = tr.Seed, spec.Inputs(tr), ctx
	want, err := RunObject(obj, cfg)
	if err != nil && ctx == nil {
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
}

// checkProtocolRun is checkObjectRun for a protocol sweep: it compares the
// result, the deciders and their indices, the violation and the trace
// events, and checks that after the fresh RunProtocol the protocol's own
// DecidedStage agrees with the run's.
func checkProtocolRun(t *testing.T, ctx context.Context, spec ProtocolSweep, tr Trial, run *ProtocolRun) {
	t.Helper()
	proto, cfg := spec.Build()
	cfg.Seed, cfg.Inputs, cfg.Context = tr.Seed, spec.Inputs(tr), ctx
	want, err := RunProtocol(proto, cfg)
	if err != nil && ctx == nil {
		t.Errorf("trial %d: fresh protocol run: %v", tr.Index, err)
		return
	}
	if !sameResult(run.Result, want.Result) || !reflect.DeepEqual(run.Decided, want.Decided) ||
		!reflect.DeepEqual(run.DecidedIdx, want.DecidedIdx) || run.Violation != nil || want.Violation != nil ||
		!reflect.DeepEqual(run.Trace.Events(), want.Trace.Events()) {
		t.Errorf("trial %d: pooled protocol trial diverged from a fresh run", tr.Index)
	}
	for pid := 0; pid < cfg.N; pid++ {
		ps, pf := proto.DecidedStage(pid)
		if rs, rf := run.DecidedStage(pid); ps != rs || pf != rf {
			t.Errorf("trial %d pid %d: protocol DecidedStage (%d, %v), run DecidedStage (%d, %v)",
				tr.Index, pid, ps, pf, rs, rf)
		}
	}
	if (run.Trace.Len() > 0) != cfg.Traced {
		t.Errorf("trial %d: protocol trace has %d events with Traced=%v", tr.Index, run.Trace.Len(), cfg.Traced)
	}
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
				checkObjectRun(t, nil, ospec, tr, run)
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
				checkProtocolRun(t, nil, pspec, tr, run)
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

// mixedRows are the two mixed input rows of n processes, built once: row k
// gives process p the input (p+k) mod 2.
func mixedRows(n int) (rows [2][]value.Value) {
	for k := range rows {
		rows[k] = make([]value.Value, n)
		for p := range rows[k] {
			rows[k][p] = value.Value((p + k) % 2)
		}
	}
	return rows
}

// TestPooledTrialsAllocateNothing: at one worker every trial is next when
// it ends, so its run is folded in its session's own buffers and never
// copied. A sweep of 200 trials therefore allocates exactly what one of 100
// does, for protocol and object sweeps alike: the sessions, the pool and
// the dispatcher, once per sweep. The inputs hook returns rows built once
// (cellProtocolSpec's makes a slice per trial).
func TestPooledTrialsAllocateNothing(t *testing.T) {
	const n = 8
	rows := mixedRows(n)
	inputs := func(tr Trial) []value.Value { return rows[tr.Index%2] }
	pspec := cellProtocolSpec(t, n, nil)
	pspec.Inputs = inputs
	ospec := cellObjectSpec(n, nil)
	ospec.Inputs = inputs
	for _, c := range []struct {
		name  string
		sweep func(s Sweep) error
	}{
		{"protocol", func(s Sweep) error { return SweepProtocol(s, pspec, func(Trial, *ProtocolRun) {}) }},
		{"object", func(s Sweep) error { return SweepObject(s, ospec, func(Trial, *ObjectRun) {}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(trials int) float64 {
				return testing.AllocsPerRun(5, func() {
					if err := c.sweep(Sweep{Trials: trials, Workers: 1, Seed: 3}); err != nil {
						t.Fatal(err)
					}
				})
			}
			a100, a200 := allocs(100), allocs(200)
			t.Logf("%v allocations for 100 trials, %v for 200", a100, a200)
			if a200 != a100 {
				t.Errorf("a sweep of 200 trials allocates %v times, one of 100 %v: want the same", a200, a100)
			}
		})
	}
}

// countingParker is a pool that counts the parked runs its sweep's fold
// consumed.
type countingParker[R snapshot[R], S cell[R]] struct {
	*Pool[R, S]
	unparked int // written under the fold's lock
}

func (c *countingParker[R, S]) unpark(snap R) {
	c.unparked++
	c.Pool.unpark(snap)
}

// TestSweepParksLateRuns: a pooled run that ends before a trial below it is
// parked as a copy, which must stay the trial's run while its session runs
// later trials and until the fold consumes it. At 4 workers, with every
// third trial delayed so trials end out of order, every run an object or
// protocol sweep merges equals a fresh RunObject/RunProtocol of its trial,
// traced or not, and at least one run was parked. The crash + stall cell
// runs on the robust policy (a stalled trial ends only at its watchdog's
// deadline), which parks every run into the same buffers.
func TestSweepParksLateRuns(t *testing.T) {
	const n, trials, workers = 4, 30, 4
	rows := mixedRows(n)
	inputs := func(tr Trial) []value.Value {
		if tr.Index%3 == 0 {
			time.Sleep(time.Millisecond)
		}
		return rows[tr.Index%2]
	}
	s := Sweep{Trials: trials, Workers: workers, Seed: 13}
	for _, c := range []struct {
		name string
		mut  func(cfg *ObjectConfig)
	}{
		{name: "plain"},
		{name: "traced", mut: func(cfg *ObjectConfig) { cfg.Traced = true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ospec := cellObjectSpec(n, c.mut)
			ospec.Inputs = inputs
			opk := &countingParker[*ObjectRun, *objectSession]{Pool: NewObjectPool(ospec)}
			defer opk.Close()
			err := runStrict(s, opk.foldTrial, func(tr Trial, run *ObjectRun) {
				checkObjectRun(t, nil, ospec, tr, run)
			}, opk)
			if err != nil {
				t.Fatal(err)
			}

			pspec := cellProtocolSpec(t, n, c.mut)
			pspec.Inputs = inputs
			ppk := &countingParker[*ProtocolRun, *protocolSession]{Pool: NewProtocolPool(pspec)}
			defer ppk.Close()
			err = runStrict(s, ppk.foldTrial, func(tr Trial, run *ProtocolRun) {
				checkProtocolRun(t, nil, pspec, tr, run)
			}, ppk)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("parked %d of %d object runs, %d of %d protocol runs", opk.unparked, trials, ppk.unparked, trials)
			if opk.unparked == 0 || ppk.unparked == 0 {
				t.Errorf("parked %d object and %d protocol runs, want at least one of each", opk.unparked, ppk.unparked)
			}
		})
	}
	t.Run("crash-stall", func(t *testing.T) {
		pspec := cellProtocolSpec(t, n, func(cfg *ObjectConfig) {
			cfg.Faults = fault.New(fault.Crash(0, 5), fault.Stall(1, 3))
		})
		pspec.Inputs = inputs
		pk := &countingParker[*ProtocolRun, *protocolSession]{Pool: NewProtocolPool(pspec)}
		defer pk.Close()
		report, err := runRobust(s, Resilience{Deadline: 50 * time.Millisecond}, pk.parkedTrial,
			func(tr Trial, run *ProtocolRun, rep TrialReport) {
				if run == nil || run.Result.Stalled == nil || !run.Result.Stalled[1] {
					t.Errorf("trial %d: %s run %+v, want process 1 stalled", tr.Index, rep.Outcome, run)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				checkProtocolRun(t, ctx, pspec, tr, run)
			}, pk)
		if err != nil {
			t.Fatal(err)
		}
		if report.Trials != trials || pk.unparked != trials {
			t.Errorf("robust sweep classified %d trials and parked %d, want %d of each: %s", report.Trials, pk.unparked, trials, report)
		}
	})
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
func (c *countingCell) session() exec.Session                               { return nil }
func (c *countingCell) close()                                              { c.closes++ }

// TestPoolLatePutClosesSession: Close closes the free sessions, and a
// session put back after it — by an attempt that outlived its sweep — is
// closed instead of returning to the free list.
func TestPoolLatePutClosesSession(t *testing.T) {
	p := &Pool[*ObjectRun, *countingCell]{make: func(*obs.Meter, sched.Scheduler) (*countingCell, error) { return &countingCell{}, nil }}
	idle, _ := p.get()
	late, _ := p.get()
	p.put(idle)
	p.Close()
	if idle.sess.closes != 1 || late.sess.closes != 0 {
		t.Fatalf("Close: free session closed %d times, checked-out one %d; want 1 and 0", idle.sess.closes, late.sess.closes)
	}
	p.put(late)
	if late.sess.closes != 1 || len(p.free) != 0 {
		t.Fatalf("late put: session closed %d times with %d free; want 1 and 0", late.sess.closes, len(p.free))
	}
}

// seedRecorder is an adversary that records the goroutine it is seeded on:
// the engine seeds it in its reset, on the goroutine that runs the session.
type seedRecorder struct {
	sched.Scheduler
	ids []string
}

func (s *seedRecorder) Seed(src *xrand.Source) {
	s.ids = append(s.ids, goroutineID())
	s.Scheduler.Seed(src)
}

// TestInstanceRunsOnOneKeptGoroutine: the executions on a
// ProtocolInstance's kept session run on the instance's runner, one
// goroutine kept across them, never the caller's and not one per
// execution.
func TestInstanceRunsOnOneKeptGoroutine(t *testing.T) {
	const n = 8
	file := register.NewFile()
	proto, err := recipe.Spec{N: n, M: 2, FastPath: true}.Build(file)
	if err != nil {
		t.Fatal(err)
	}
	in := NewProtocolInstance(file, proto)
	defer in.Close()
	rec := &seedRecorder{Scheduler: sched.NewFirstMoverAttack()}
	cfg := ObjectConfig{N: n, File: file, Inputs: mixedRows(n)[0], Scheduler: rec}
	for seed := uint64(1); seed <= 6; seed++ {
		if seed == 2 {
			rec.ids = nil // the first execution runs on the caller's goroutine
		}
		cfg.Seed = seed
		if _, err := in.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ids := make(map[string]bool)
	for _, id := range rec.ids {
		ids[id] = true
	}
	if len(rec.ids) != 5 || len(ids) != 1 || ids[goroutineID()] {
		t.Errorf("5 warm runs seeded their adversary %d times on goroutines %v (the caller is %s), want 5 times on one goroutine not the caller's",
			len(rec.ids), rec.ids, goroutineID())
	}
}
