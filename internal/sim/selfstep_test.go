package sim

// Steps taken on a process's own stack. A process that issues a request runs
// the step loop's next iteration itself, and when the adversary picks it
// again it applies the operation there, with no coroutine switch. These
// tests drive that path with adversaries that repeat their picks: the
// frontrunner, which runs Runnable[0] until it halts, and wrappers that end
// or break a trial in the middle of such a run.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// repeater wraps a scheduler at a declared power and counts the picks that
// give the previous mover the next step again, which are the picks a process
// takes on its own stack. Its hook, if set, runs before every pick.
type repeater struct {
	power   sched.Power
	inner   sched.Scheduler
	hook    func(v *sched.View)
	last    int
	repeats int
}

func (s *repeater) Next(v *sched.View) int {
	if s.hook != nil {
		s.hook(v)
	}
	pid := s.inner.Next(v)
	if pid == s.last {
		s.repeats++
	}
	s.last = pid
	return pid
}

func (s *repeater) Seed(src *xrand.Source) { s.inner.Seed(src); s.last, s.repeats = -1, 0 }
func (s *repeater) Name() string           { return "repeat-" + s.power.String() }
func (s *repeater) MinPower() sched.Power  { return s.power }

func frontrunnerAt(power sched.Power) *repeater {
	return &repeater{power: power, inner: sched.NewFrontrunner()}
}

// loopForever is a program that never halts on its own: it writes, reads and
// flips coins until the trial ends around it.
func loopForever(a register.Array) exec.Program {
	return func(e core.Env) value.Value {
		r := a.At(e.PID() % a.Len)
		for i := 0; ; i++ {
			e.Write(r, value.Value(i))
			if e.CoinBool() {
				e.Read(r)
			}
			e.ProbWrite(r, value.Value(i+1), 1, 2)
		}
	}
}

// TestSelfStepsMatchChanEngine runs the frontrunner, which hands every step
// but a process's first back to it, against the channel engine's trace and
// result at every power and register model, with crash thresholds that fire
// inside the runs of self-taken steps. The frontrunner runs one process at a
// time to its halt, and equivBody starts with a write, so no read overlaps
// a write and the regular and interposed models read what the atomic one
// reads, as the channel engine does.
func TestSelfStepsMatchChanEngine(t *testing.T) {
	crashes := []map[int]int{nil, {0: 5}, {0: 1, 2: 7}}
	models := []register.Semantics{register.Atomic, register.Regular, register.Interposed}
	for _, power := range benchPowers {
		for _, m := range models {
			for ci, crash := range crashes {
				for _, cheap := range []bool{true, false} {
					name := fmt.Sprintf("%s/%v/crash%d/cheap=%v", power, m, ci, cheap)
					for seed := uint64(1); seed <= 4; seed++ {
						run := func(chanEngine bool) (*exec.Result, *trace.Log, int) {
							f := register.NewFile()
							a := f.Alloc(4, "arr")
							log := trace.New()
							s := frontrunnerAt(power)
							cfg := exec.Config{
								N: 4, File: f, Scheduler: s, Trace: log, CheapCollect: cheap,
								Faults: fault.FromCrashMap(crash), Registers: m,
							}
							var res *exec.Result
							var err error
							if chanEngine {
								res, err = chanRun(cfg, seed, func(e *chanEnv) value.Value { return equivBody(e, a) })
							} else {
								res, err = runOnce(cfg, seed, func(e core.Env) value.Value { return equivBody(e, a) })
							}
							if err != nil {
								t.Fatalf("%s seed %d (chan=%v): %v", name, seed, chanEngine, err)
							}
							return res, log, s.repeats
						}
						wantRes, wantLog, _ := run(true)
						gotRes, gotLog, repeats := run(false)
						if repeats == 0 {
							t.Fatalf("%s seed %d: the frontrunner never repeated a pick", name, seed)
						}
						diffTraces(t, name, wantLog.Events(), gotLog.Events())
						diffResults(t, name, wantRes, gotRes)
					}
				}
			}
		}
	}
}

// TestHaltRightAfterSelfStep has processes whose last operation is taken on
// their own stack: the program returns, its coroutine parks, and the loop
// must retire it and pick among the rest, as the channel engine does.
func TestHaltRightAfterSelfStep(t *testing.T) {
	body := func(e envLike, a register.Array) value.Value {
		r := a.At(e.PID())
		for i := 0; i <= e.PID(); i++ {
			e.Write(r, value.Value(i+1))
		}
		return e.Read(r)
	}
	for _, power := range benchPowers {
		run := func(chanEngine bool) (*exec.Result, *trace.Log) {
			f := register.NewFile()
			a := f.Alloc(3, "arr")
			log := trace.New()
			cfg := exec.Config{N: 3, File: f, Scheduler: frontrunnerAt(power), Trace: log}
			var res *exec.Result
			var err error
			if chanEngine {
				res, err = chanRun(cfg, 9, func(e *chanEnv) value.Value { return body(e, a) })
			} else {
				res, err = runOnce(cfg, 9, func(e core.Env) value.Value { return body(e, a) })
			}
			if err != nil {
				t.Fatal(err)
			}
			return res, log
		}
		wantRes, wantLog := run(true)
		gotRes, gotLog := run(false)
		diffTraces(t, power.String(), wantLog.Events(), gotLog.Events())
		diffResults(t, power.String(), wantRes, gotRes)
		for pid := 0; pid < 3; pid++ {
			if !gotRes.Halted[pid] || gotRes.Outputs[pid] != value.Value(pid+1) || gotRes.Work[pid] != pid+2 {
				t.Fatalf("%s: pid %d halted=%v output=%v work=%d", power, pid, gotRes.Halted[pid], gotRes.Outputs[pid], gotRes.Work[pid])
			}
		}
	}
}

// sessionRunsMatchFresh runs one session over seeds and checks every trial
// against a fresh engine's run of the same seed, errors included (compared
// by text).
func sessionRunsMatchFresh(t *testing.T, build func() (exec.Config, exec.Program), ctx func() context.Context, seeds ...uint64) {
	t.Helper()
	cfg, prog := build()
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, seed := range seeds {
		res, errS := sess.Run(ctx(), seed)
		got := cloneForCompare(res)
		freshCfg, freshProg := build()
		fresh, err := Backend().NewSession(freshCfg, freshProg)
		if err != nil {
			t.Fatal(err)
		}
		want, errF := fresh.Run(ctx(), seed)
		if fmt.Sprint(errS) != fmt.Sprint(errF) {
			t.Fatalf("seed %d: session err %v, fresh err %v", seed, errS, errF)
		}
		if !reflect.DeepEqual(got, cloneForCompare(want)) {
			t.Fatalf("seed %d: session trial diverged from a fresh run:\n got %+v\nwant %+v", seed, got, want)
		}
		fresh.Close()
	}
}

// TestStepLimitInsideSelfSteps ends trials at the step limit in the middle of
// a run of self-taken steps; the session's next trial must equal a fresh
// run.
func TestStepLimitInsideSelfSteps(t *testing.T) {
	for _, limit := range []int{1, 2, 7, 40} {
		build := func() (exec.Config, exec.Program) {
			f := register.NewFile()
			a := f.Alloc(3, "arr")
			return exec.Config{N: 3, File: f, Scheduler: frontrunnerAt(sched.Adaptive), MaxSteps: limit}, loopForever(a)
		}
		cfg, prog := build()
		res, err := runOnce(cfg, 1, prog)
		if !errors.Is(err, exec.ErrStepLimit) || res.Work[0] != limit {
			t.Fatalf("limit %d: err %v, work %v", limit, err, res.Work)
		}
		sessionRunsMatchFresh(t, build, func() context.Context { return nil }, 1, 2, 1)
	}
}

// TestCancelInsideSelfSteps cancels the context from the adversary in the
// middle of a run of self-taken steps: the trial ends at the next stop
// check with ErrCancelled, and the session's next trial equals a fresh run.
func TestCancelInsideSelfSteps(t *testing.T) {
	for _, at := range []int{1, 5, 33} {
		var cancel context.CancelFunc
		build := func() (exec.Config, exec.Program) {
			f := register.NewFile()
			a := f.Alloc(2, "arr")
			s := frontrunnerAt(sched.ValueOblivious)
			s.hook = func(v *sched.View) {
				if v.Step == at {
					cancel()
				}
			}
			return exec.Config{N: 2, File: f, Scheduler: s}, loopForever(a)
		}
		ctx := func() context.Context {
			var c context.Context
			c, cancel = context.WithCancel(context.Background())
			return c
		}
		sessionRunsMatchFresh(t, build, ctx, 3, 4, 3)
		cfg, prog := build()
		sess, err := Backend().NewSession(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(ctx(), 5)
		if !errors.Is(err, exec.ErrCancelled) || res.Steps != at+1 || res.Work[0] != at+1 {
			t.Fatalf("cancel at %d: err %v, steps %d, work %v", at, err, res.Steps, res.Work)
		}
		sess.Close()
	}
}

// TestStallAndCrashAtSelfStep fires stall and crash thresholds at
// self-taken steps, and at birth: the stalled process takes no further step,
// the crashed one's last operation lands, the loop picks among the rest, and
// the session's next trials equal fresh runs. A stall at birth leaves a
// stalled process while the others issue their first requests, which must
// not take the loop's iteration: the loop has not started.
func TestStallAndCrashAtSelfStep(t *testing.T) {
	cases := []struct {
		name string
		plan *fault.Plan
		work [3]int
	}{
		// pid 0 stalls at its third step; pid 1's first operation at or
		// after global step 7 is its fourth, and pid 2 takes the rest.
		{"self-taken", fault.New(fault.Stall(0, 3), fault.CrashOnRound(1, 3)), [3]int{3, 4, 23}},
		{"stall-at-birth", fault.New(fault.Stall(0, 0), fault.Crash(1, 2)), [3]int{0, 2, 28}},
	}
	for _, c := range cases {
		build := func() (exec.Config, exec.Program) {
			f := register.NewFile()
			a := f.Alloc(3, "arr")
			return exec.Config{
				N: 3, File: f, Scheduler: frontrunnerAt(sched.LocationOblivious), MaxSteps: 30, Faults: c.plan,
			}, loopForever(a)
		}
		// A trial that wrongly waits for cancellation fails at the deadline
		// instead of hanging the test.
		ctx := func() context.Context {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			t.Cleanup(cancel)
			return ctx
		}
		cfg, prog := build()
		sess, err := Backend().NewSession(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(ctx(), 1)
		if !errors.Is(err, exec.ErrStepLimit) {
			t.Fatalf("%s: err = %v, want ErrStepLimit", c.name, err)
		}
		if !res.Stalled[0] || !res.Crashed[1] || !reflect.DeepEqual(res.Work, c.work[:]) {
			t.Fatalf("%s: stalled %v, crashed %v, work %v, want pid 0 stalled, pid 1 crashed, work %v",
				c.name, res.Stalled, res.Crashed, res.Work, c.work)
		}
		sess.Close()
		sessionRunsMatchFresh(t, build, ctx, 1, 2, 1)
	}
}

// TestSchedulerPanicInSelfStep panics in the adversary while it picks on a
// process's stack (at step 4, the frontrunner's fourth repeat), and, for
// comparison, on the loop's (at step 0). The panic's own value must leave
// Run, the session must be poisoned, and the program's defers must not run
// while the panic unwinds: a step on a process's stack is caught before it
// can unwind the program and re-raised on the loop's stack. Nothing steps
// afterwards, not even the defer's write when Close tears the processes
// down.
func TestSchedulerPanicInSelfStep(t *testing.T) {
	for _, at := range []int{4, 0} {
		type boom struct{}
		want := &boom{}
		f := register.NewFile()
		a := f.Alloc(2, "arr")
		var deferRan, panicked, pickedAfter bool
		s := frontrunnerAt(sched.Oblivious)
		s.hook = func(v *sched.View) {
			if panicked {
				pickedAfter = true
			}
			if v.Step == at {
				panicked = true
				panic(want)
			}
		}
		body := loopForever(a)
		prog := func(e core.Env) value.Value {
			defer func() {
				deferRan = true
				e.Write(a.At(1), 99)
			}()
			return body(e)
		}
		sess, err := Backend().NewSession(exec.Config{N: 2, File: f, Scheduler: s}, prog)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("panic at %d: recovered %v, want the scheduler's own value", at, r)
				}
				if deferRan {
					t.Fatalf("panic at %d: a program defer ran while the scheduler's panic unwound", at)
				}
			}()
			sess.Run(nil, 1)
			t.Fatal("Run returned instead of panicking")
		}()
		if s.repeats != max(at-1, 0) {
			t.Fatalf("panic at %d: %d repeated picks before it, want %d", at, s.repeats, max(at-1, 0))
		}
		if _, err := sess.Run(nil, 2); !errors.Is(err, exec.ErrSessionPoisoned) {
			t.Fatalf("panic at %d: run after panic: err = %v, want ErrSessionPoisoned", at, err)
		}
		sess.Close()
		if pickedAfter {
			t.Fatalf("panic at %d: the adversary was asked for a pick after its panic", at)
		}
		if v := f.Load(a.At(1)); v == 99 {
			t.Fatalf("panic at %d: a program defer's write landed after the panic", at)
		}
	}
}
