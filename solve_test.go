package modcon

import (
	"context"
	"fmt"
	"os"
	osexec "os/exec"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/sched"
)

// panicAfter is an adversary that gives up with a panic after left picks,
// leaving the run's registers half written.
type panicAfter struct {
	Scheduler
	left int
}

func (p *panicAfter) Next(v *sched.View) int {
	if p.left == 0 {
		panic("panicAfter: scheduler gave up")
	}
	p.left--
	return p.Scheduler.Next(v)
}

// solveRecovered runs Solve and reports whether it panicked.
func solveRecovered(c *Consensus, inputs []Value, s Scheduler, seed uint64, rc RunConfig) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	_, _ = c.Solve(inputs, s, seed, rc)
	return false
}

// TestSolveReuseMatchesFreshSpec: Solve reuses the instances earlier calls
// built, so a call's outcome must not depend on what ran before it on the
// same spec. Across the spec options and run configurations, successful
// Solves interleaved with a step-limit failure, a cancelled context and a
// panicking scheduler must each equal a Solve on a freshly constructed spec.
func TestSolveReuseMatchesFreshSpec(t *testing.T) {
	const n = 4
	specs := []struct {
		name string
		m    int
		opts []Option
	}{
		{"auto-m2", 2, nil},
		{"auto-m5", 5, nil},
		{"binary", 2, []Option{WithScheme(SchemeBinary)}},
		{"pool", 5, []Option{WithScheme(SchemePool)}},
		{"bitvector", 5, []Option{WithScheme(SchemeBitVector)}},
		{"collect-m2", 2, []Option{WithScheme(SchemeCollect)}},
		{"collect-m5", 5, []Option{WithScheme(SchemeCollect)}},
		{"constant-rate", 2, []Option{WithConciliator(ConciliatorConstantRate)}},
		{"shared-coin", 2, []Option{WithConciliator(ConciliatorSharedCoin)}},
		{"write-detection", 5, []Option{WithWriteDetection(true)}},
		{"stages-fallback", 5, []Option{WithStages(2), WithFallback(true)}},
	}
	plan := Faults(CrashFault(0, 5), LoseCoinFault(AllProcs, 1, 4))
	runs := []struct {
		name string
		rc   RunConfig
	}{
		{"atomic", RunConfig{}},
		{"regular", RunConfig{Registers: Regular}},
		{"interposed", RunConfig{Registers: Interposed}},
		{"faults", RunConfig{Faults: plan}},
		{"traced-cheap", RunConfig{Traced: true, CheapCollect: true}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for si, spec := range specs {
		for ri, run := range runs {
			t.Run(spec.name+"/"+run.name, func(t *testing.T) {
				newSched := func() Scheduler { return NewUniformRandom() }
				if (si+ri)%2 == 1 {
					newSched = func() Scheduler { return NewFirstMoverAttack() }
				}
				c, err := New(n, spec.m, spec.opts...)
				if err != nil {
					t.Fatal(err)
				}
				solveMatches := func(seed uint64) {
					t.Helper()
					inputs := mixedInputs(n, spec.m, int(seed))
					got, err := c.Solve(inputs, newSched(), seed, run.rc)
					if err != nil {
						t.Fatalf("seed %d: reused spec: %v", seed, err)
					}
					fresh, err := New(n, spec.m, spec.opts...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Solve(inputs, newSched(), seed, run.rc)
					if err != nil {
						t.Fatalf("seed %d: fresh spec: %v", seed, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d: reused spec %+v, fresh spec %+v", seed, got, want)
					}
				}
				limited, withCtx := run.rc, run.rc
				limited.MaxSteps = 1
				withCtx.Context = cancelled

				solveMatches(1)
				if _, err := c.Solve(mixedInputs(n, spec.m, 0), newSched(), 2, limited); err == nil {
					t.Error("MaxSteps 1: Solve returned no error")
				}
				solveMatches(3)
				if _, err := c.Solve(mixedInputs(n, spec.m, 1), newSched(), 4, withCtx); err == nil {
					t.Error("cancelled context: Solve returned no error")
				}
				solveMatches(5)
				if !solveRecovered(c, mixedInputs(n, spec.m, 2), &panicAfter{Scheduler: newSched(), left: 3}, 6, run.rc) {
					t.Error("panicking scheduler: Solve did not panic")
				}
				solveMatches(7)
			})
		}
	}
}

// TestSolveConcurrentCalls: goroutines sharing one spec each take their own
// instance, so every outcome equals the same Solve run sequentially.
func TestSolveConcurrentCalls(t *testing.T) {
	const n, goroutines, perG = 8, 4, 6
	c, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Registers: Regular}
	solve := func(i int) *Outcome {
		out, err := c.Solve(mixedInputs(n, 2, i), NewFirstMoverAttack(), uint64(i), rc)
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		return out
	}
	want := make([]*Outcome, goroutines*perG)
	for i := range want {
		want[i] = solve(i)
	}
	got := make([]*Outcome, len(want))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(got); i += goroutines {
				got[i] = solve(i)
			}
		}(g)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("call %d: concurrent %+v, sequential %+v", i, got[i], want[i])
		}
	}
}

// TestSolveAllocs: a warm Solve replays its instance's kept session, so it
// pays for the outcome and the run's bookkeeping, not for building 512
// stages (13 allocations at any n, but about 1,000 objects in them) or
// opening an engine (n coroutines, the register image, buffers and a fault
// compile: about 130 allocations). The run is the session's own, so the
// outcome's four allocations (the Outcome, its outputs, one []bool and one
// []int) are most of what is left. The first row is the solve-n8-attack
// benchmark cell, the second the trials-n32-faults cell; each ceiling is
// the count measured when the per-trial run struct went away.
func TestSolveAllocs(t *testing.T) {
	plan, err := ParseFaults("crash:pid=0,after=5;losecoin:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name     string
		n        int
		newSched func() Scheduler
		rc       RunConfig
		max      float64
	}{
		{"n8-first-mover", 8, func() Scheduler { return NewFirstMoverAttack() }, RunConfig{}, 12},
		{"n32-regular-faults", 32, func() Scheduler { return NewUniformRandom() }, RunConfig{Registers: Regular, Faults: plan}, 10},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			c, err := NewBinary(cell.n)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0)
			solve := func() {
				seed++
				if _, err := c.Solve(mixedInputs(cell.n, 2, int(seed)), cell.newSched(), seed, cell.rc); err != nil {
					t.Fatal(err)
				}
			}
			solve() // warm up: build the instance,
			solve() // then open the session it keeps
			allocs := testing.AllocsPerRun(20, solve)
			t.Logf("warm Solve: %v allocs", allocs)
			if allocs > cell.max {
				t.Errorf("warm Solve: %v allocs, want ≤ %v", allocs, cell.max)
			}
		})
	}
}

// TestSolveAllocsIndependentOfM: a ratifier looks its quorums up into a
// buffer on the invoking process's stack, so a warm m-valued Solve, whose
// Pool ratifiers unrank a quorum on every invocation, allocates exactly what
// a binary one does.
func TestSolveAllocsIndependentOfM(t *testing.T) {
	allocs := func(m int) float64 {
		c, err := New(8, m)
		if err != nil {
			t.Fatal(err)
		}
		inputs := mixedInputs(8, m, 0)
		seed := uint64(0)
		solve := func() {
			seed++
			if _, err := c.Solve(inputs, NewFirstMoverAttack(), seed); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm up: build the instance,
		solve() // then open the session it keeps
		return testing.AllocsPerRun(20, solve)
	}
	if binary, pool := allocs(2), allocs(16); pool != binary {
		t.Errorf("warm Solve: %v allocs at m=16, %v at m=2; want the same", pool, binary)
	}
}

// snapshotOutcome deep-copies an outcome, trace included.
func snapshotOutcome(o *Outcome) *Outcome {
	cp := *o
	cp.Outputs = slices.Clone(o.Outputs)
	cp.Decided = slices.Clone(o.Decided)
	cp.Stage = slices.Clone(o.Stage)
	cp.FellBack = slices.Clone(o.FellBack)
	cp.Work = slices.Clone(o.Work)
	cp.Trace = o.Trace.Clone()
	return &cp
}

// TestSolveOutcomeSurvivesLaterSolves: a Solve's outcome is the caller's,
// although the run it came from aliased a session the spec replays. A traced
// outcome and a faulted outcome, each from the second Solve of its shape
// (the first whose session is kept), are held while later Solves of the
// same shape replay that session, and each must still equal the deep copy
// taken when it returned.
func TestSolveOutcomeSurvivesLaterSolves(t *testing.T) {
	const n = 8
	c, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	plan := Faults(CrashFault(0, 5), LoseCoinFault(AllProcs, 1, 4))
	for _, rc := range []RunConfig{{Traced: true}, {Faults: plan}, {Traced: true, Faults: plan, Registers: Regular}} {
		if _, err := c.Solve(mixedInputs(n, 2, 0), NewUniformRandom(), 0, rc); err != nil {
			t.Fatal(err)
		}
		held, err := c.Solve(mixedInputs(n, 2, 0), NewFirstMoverAttack(), 1, rc)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotOutcome(held)
		for seed := uint64(2); seed <= 5; seed++ {
			if _, err := c.Solve(mixedInputs(n, 2, int(seed)), NewUniformRandom(), seed, rc); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.free) != 1 {
			t.Fatalf("%+v: spec keeps %d instances after sequential Solves, want 1", rc, len(c.free))
		}
		if !reflect.DeepEqual(held, want) {
			t.Errorf("%+v: outcome changed under later Solves:\n got %+v\nwant %+v", rc, held, want)
		}
	}
}

// TestSolveShapeChanges: one spec cycles through execution shapes, two
// calls each: the first of a shape closes the session the previous shape
// kept and runs on a session it closes, and the second opens a session
// and keeps it. Each call must equal the same call on a fresh spec, and the
// spec must keep exactly one instance, holding a session after the second
// call of a shape only. Live interleavings are the hardware's, so the Live
// rows run unanimous inputs, whose every process decides the input in the
// fast path whatever the interleaving, and compare everything but work.
func TestSolveShapeChanges(t *testing.T) {
	const n = 4
	plan := Faults(CrashFault(1, 6), LoseCoinFault(AllProcs, 1, 3))
	rows := []struct {
		name string
		rc   RunConfig
	}{
		{"atomic", RunConfig{}},
		{"regular", RunConfig{Registers: Regular}},
		{"traced-cheap", RunConfig{Traced: true, CheapCollect: true}},
		{"max-steps", RunConfig{MaxSteps: 1_000_000}},
		{"faults", RunConfig{Faults: plan}},
		{"live", RunConfig{Backend: Live}},
	}
	c, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i, row := range rows {
			for call := 0; call < 2; call++ {
				seed := uint64(100*round + 10*i + call)
				at := fmt.Sprintf("%s round %d call %d", row.name, round, call)
				inputs, newSched := mixedInputs(n, 2, int(seed)), func() Scheduler { return NewFirstMoverAttack() }
				if row.rc.Backend == Live {
					inputs, newSched = []Value{1}, func() Scheduler { return nil }
				}
				got, err := c.Solve(inputs, newSched(), seed, row.rc)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if len(c.free) != 1 {
					t.Fatalf("%s: spec keeps %d instances, want 1", at, len(c.free))
				}
				if open := c.free[0].Open(); open != (call == 1) {
					t.Fatalf("%s: instance keeps a session: %v, want %v", at, open, call == 1)
				}
				fresh, err := NewBinary(n)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Solve(inputs, newSched(), seed, row.rc)
				if err != nil {
					t.Fatalf("%s: fresh spec: %v", at, err)
				}
				if row.rc.Backend == Live {
					got, want = snapshotOutcome(got), snapshotOutcome(want)
					got.Work, got.TotalWork, want.Work, want.TotalWork = nil, 0, nil, 0
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: reused spec %+v, fresh spec %+v", at, got, want)
				}
			}
		}
	}
}

// childTestEnv names the test a child process of the test binary runs
// (see runInChild).
const childTestEnv = "MODCON_TEST_CHILD"

// runInChild runs body in a child process of the test binary, which runs
// only this test. The runtime aborts the whole process when a goroutine
// resumes or stops a coroutine in another OS-thread lock state than the one
// that created it, so a regression of the lock-state rule fails this one
// test instead of the whole binary.
func runInChild(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	if os.Getenv(childTestEnv) == t.Name() {
		body(t)
		return
	}
	cmd := osexec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), childTestEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
}

// onLockedThread runs f on a new goroutine locked to its OS thread, the
// state a cgo callback or a GUI main thread calls in.
func onLockedThread(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		f()
	}()
	<-done
}

// TestSolveFromLockedThread: a spec warmed on one goroutine serves a
// thread-locked caller, and then an unlocked one again. The kept session's
// coroutines were created on an unlocked goroutine; replaying them from the
// locked caller's goroutine, or closing them there when its next Solve
// changes shape, would abort the process.
func TestSolveFromLockedThread(t *testing.T) {
	runInChild(t, func(t *testing.T) {
		const n = 8
		c, err := NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		solve := func(seed uint64, rc RunConfig) *Outcome {
			out, err := c.Solve(mixedInputs(n, 2, int(seed)), NewFirstMoverAttack(), seed, rc)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			return out
		}
		atomic, regular := RunConfig{}, RunConfig{Registers: Regular}
		solve(1, atomic)                 // the spec's first Solve closes its session,
		want := solve(2, atomic)         // and its second keeps one
		wantRegular := solve(3, regular) // a shape change closes it again
		solve(2, atomic)
		solve(2, atomic) // kept again
		var locked, lockedRegular *Outcome
		onLockedThread(func() {
			locked = solve(2, atomic)
			lockedRegular = solve(3, regular)
		})
		if !reflect.DeepEqual(locked, want) {
			t.Errorf("locked caller: %+v, want %+v", locked, want)
		}
		if !reflect.DeepEqual(lockedRegular, wantRegular) {
			t.Errorf("locked caller, new shape: %+v, want %+v", lockedRegular, wantRegular)
		}
		solve(2, atomic)
		if again := solve(2, atomic); !reflect.DeepEqual(again, want) {
			t.Errorf("unlocked caller after a locked one: %+v, want %+v", again, want)
		}
	})
}

// TestSolveReleasesSessions: a spec's kept sessions hold parked coroutines,
// which are goroutines. A Solve that panics closes its session, and a spec
// that becomes unreachable closes its instances' sessions, so the goroutine
// count returns to where it was.
func TestSolveReleasesSessions(t *testing.T) {
	const n = 8
	// Finalizers run, and the sessions they close exit, asynchronously, so
	// counts are read between garbage collections. The baseline waits for
	// what earlier tests dropped to settle.
	collect := func() int {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	base := runtime.NumGoroutine()
	for prev := -1; base != prev; {
		prev, base = base, collect()
	}

	// solveTwice leaves spec with a kept session: the second of two Solves
	// of one shape keeps the session it opens.
	solveTwice := func(spec *Consensus, i int) {
		for seed := uint64(2 * i); seed < uint64(2*i+2); seed++ {
			if _, err := spec.Solve(mixedInputs(n, 2, int(seed)), NewFirstMoverAttack(), seed); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := NewBinary(n)
	if err != nil {
		t.Fatal(err)
	}
	solveTwice(c, 0)
	for i := 0; i < 20; i++ {
		if !solveRecovered(c, mixedInputs(n, 2, i), &panicAfter{Scheduler: NewFirstMoverAttack(), left: 3}, uint64(i), RunConfig{}) {
			t.Fatal("panicking scheduler: Solve did not panic")
		}
	}
	for i := 0; i < 50; i++ {
		d, err := NewBinary(n)
		if err != nil {
			t.Fatal(err)
		}
		solveTwice(d, i)
	}
	got := collect()
	for deadline := time.Now().Add(10 * time.Second); got > base && time.Now().Before(deadline); {
		got = collect()
	}
	if got > base {
		t.Errorf("%d goroutines after 20 panicking Solves and 50 dropped specs, want at most the %d before", got, base)
	}
}
