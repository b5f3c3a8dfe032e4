package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// runOnce is one execution on a fresh session, the way harness.RunProgram
// runs one: build the engine, run it once at seed, close it.
func runOnce(cfg exec.Config, seed uint64, programs ...exec.Program) (*exec.Result, error) {
	eng, err := newEngine(cfg, programs...)
	if err != nil {
		return nil, err
	}
	// Close unwinds every coroutine even when a program panic propagates
	// out of Run, preserving the original panic value.
	defer eng.Close()
	return eng.Run(nil, seed)
}

func TestSingleProcessReadWrite(t *testing.T) {
	f := register.NewFile()
	r := f.Alloc1("x")
	res, err := runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin()}, 1,
		func(e core.Env) value.Value {
			if got := e.Read(r); !got.IsNone() {
				t.Errorf("initial read = %s, want ⊥", got)
			}
			e.Write(r, 7)
			return e.Read(r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 7 {
		t.Fatalf("output = %s", res.Outputs[0])
	}
	if res.TotalWork != 3 || res.Work[0] != 3 {
		t.Fatalf("work = %d / %v, want 3 ops", res.TotalWork, res.Work)
	}
	if !res.Halted[0] || res.Crashed[0] {
		t.Fatalf("halted=%v crashed=%v", res.Halted, res.Crashed)
	}
}

func TestRegisterSemanticsAcrossProcesses(t *testing.T) {
	// Under round-robin, p0 writes then p1 reads the written value: reads
	// return the last value written.
	f := register.NewFile()
	r := f.Alloc1("x")
	writer := func(e core.Env) value.Value { e.Write(r, 42); return 0 }
	reader := func(e core.Env) value.Value { return e.Read(r) }
	res, err := runOnce(exec.Config{N: 2, File: f, Scheduler: sched.NewFixedOrder([]int{0, 1})}, 1,
		writer, reader)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != 42 {
		t.Fatalf("reader saw %s, want 42", res.Outputs[1])
	}
}

func TestSchedulerControlsInterleaving(t *testing.T) {
	// With order (1, 0) the reader runs first and sees ⊥.
	f := register.NewFile()
	r := f.Alloc1("x")
	writer := func(e core.Env) value.Value { e.Write(r, 42); return 0 }
	reader := func(e core.Env) value.Value { return e.Read(r) }
	res, err := runOnce(exec.Config{N: 2, File: f, Scheduler: sched.NewFixedOrder([]int{1, 0})}, 1,
		writer, reader)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs[1].IsNone() {
		t.Fatalf("reader saw %s, want ⊥", res.Outputs[1])
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(e core.Env) value.Value {
		f := value.Value(0)
		for i := 0; i < 10; i++ {
			f += value.Value(e.CoinIntn(100))
		}
		return f
	}
	run := func() []value.Value {
		f := register.NewFile()
		f.Alloc1("pad")
		res, err := runOnce(exec.Config{N: 4, File: f, Scheduler: sched.NewUniformRandom()}, 99, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	prog := func(e core.Env) value.Value { return value.Value(e.CoinIntn(1 << 30)) }
	out := func(seed uint64) value.Value {
		f := register.NewFile()
		res, err := runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin()}, seed, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs[0]
	}
	if out(1) == out(2) {
		t.Fatal("different seeds produced identical coin streams")
	}
}

func TestProbWriteZeroAndOne(t *testing.T) {
	f := register.NewFile()
	r := f.Alloc1("x")
	res, err := runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin()}, 5,
		func(e core.Env) value.Value {
			if e.ProbWrite(r, 1, 0, 10) {
				t.Error("ProbWrite with p=0 succeeded")
			}
			if !e.Read(r).IsNone() {
				t.Error("register written by p=0 write")
			}
			if !e.ProbWrite(r, 2, 10, 10) {
				t.Error("ProbWrite with p=1 failed")
			}
			return e.Read(r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 2 {
		t.Fatalf("output = %s, want 2", res.Outputs[0])
	}
	if res.TotalWork != 4 {
		t.Fatalf("TotalWork = %d; probabilistic writes must cost 1 regardless of outcome", res.TotalWork)
	}
}

func TestProbWriteRate(t *testing.T) {
	// Empirical success rate of p=1/4 writes across seeds.
	hits, trials := 0, 2000
	for seed := 0; seed < trials; seed++ {
		f := register.NewFile()
		r := f.Alloc1("x")
		res, err := runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin()}, uint64(seed),
			func(e core.Env) value.Value {
				if e.ProbWrite(r, 1, 1, 4) {
					return 1
				}
				return 0
			})
		if err != nil {
			t.Fatal(err)
		}
		hits += int(res.Outputs[0])
	}
	rate := float64(hits) / float64(trials)
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("ProbWrite(1/4) empirical rate %v", rate)
	}
}

func TestCollectCostModels(t *testing.T) {
	build := func() (*register.File, register.Array) {
		f := register.NewFile()
		a := f.Alloc(5, "arr")
		return f, a
	}
	prog := func(a register.Array) exec.Program {
		return func(e core.Env) value.Value {
			e.Write(a.At(3), 9)
			vals := e.Collect(a)
			return vals[3]
		}
	}

	f, a := build()
	res, err := runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin(), CheapCollect: true}, 1, prog(a))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 9 {
		t.Fatalf("cheap collect read %s", res.Outputs[0])
	}
	if res.TotalWork != 2 { // write + collect
		t.Fatalf("cheap collect TotalWork = %d, want 2", res.TotalWork)
	}

	f, a = build()
	res, err = runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin()}, 1, prog(a))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 9 {
		t.Fatalf("linear collect read %s", res.Outputs[0])
	}
	if res.TotalWork != 6 { // write + 5 reads
		t.Fatalf("linear collect TotalWork = %d, want 6", res.TotalWork)
	}
}

func TestCrash(t *testing.T) {
	f := register.NewFile()
	r := f.Alloc1("x")
	spin := func(e core.Env) value.Value {
		for i := 0; ; i++ {
			e.Write(r, value.Value(i))
			if e.Read(r) == -1 { // never true; crashed before deciding
				return 0
			}
			if i > 100 {
				return 1
			}
		}
	}
	res, err := runOnce(exec.Config{
		N: 2, File: f, Scheduler: sched.NewRoundRobin(),
		Faults: fault.FromCrashMap(map[int]int{0: 5, 1: 3}),
	}, 1, spin, spin)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || !res.Crashed[1] {
		t.Fatalf("crashed = %v", res.Crashed)
	}
	if res.Work[0] != 5 || res.Work[1] != 3 {
		t.Fatalf("work = %v, want [5 3]", res.Work)
	}
	if res.Halted[0] || res.Halted[1] {
		t.Fatal("crashed process halted")
	}
	if !res.Outputs[0].IsNone() {
		t.Fatal("crashed process has an output")
	}
	if len(res.HaltedOutputs()) != 0 {
		t.Fatal("HaltedOutputs nonempty")
	}
}

func TestCrashedProcessOperationTakesEffect(t *testing.T) {
	// The crashing process's final write must land (crash happens after the
	// op applies), and a surviving process must be able to finish.
	f := register.NewFile()
	r := f.Alloc1("x")
	writer := func(e core.Env) value.Value {
		e.Write(r, 77)
		e.Write(r, 88) // never executed: crash after 1 op
		return 0
	}
	reader := func(e core.Env) value.Value {
		for {
			if v := e.Read(r); !v.IsNone() {
				return v
			}
		}
	}
	res, err := runOnce(exec.Config{
		N: 2, File: f, Scheduler: sched.NewFixedOrder([]int{0, 1}),
		Faults: fault.FromCrashMap(map[int]int{0: 1}),
	}, 1, writer, reader)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != 77 {
		t.Fatalf("survivor read %s, want 77", res.Outputs[1])
	}
}

func TestStepLimit(t *testing.T) {
	f := register.NewFile()
	r := f.Alloc1("x")
	res, err := runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin(), MaxSteps: 10}, 1,
		func(e core.Env) value.Value {
			for {
				e.Read(r)
			}
		})
	if !errors.Is(err, exec.ErrStepLimit) {
		t.Fatalf("err = %v, want exec.ErrStepLimit", err)
	}
	if res.TotalWork != 10 {
		t.Fatalf("TotalWork = %d, want 10", res.TotalWork)
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	f := register.NewFile()
	r := f.Alloc1("x")
	for i := 0; i < 20; i++ {
		_, err := runOnce(exec.Config{N: 8, File: f, Scheduler: sched.NewRoundRobin(), MaxSteps: 50}, uint64(i),
			func(e core.Env) value.Value {
				for {
					e.Read(r) // runs forever; must be reaped at step limit
				}
			})
		if !errors.Is(err, exec.ErrStepLimit) {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}

func TestProgramPanicPropagates(t *testing.T) {
	f := register.NewFile()
	f.Alloc1("x")
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	_, _ = runOnce(exec.Config{N: 2, File: f, Scheduler: sched.NewRoundRobin()}, 1,
		func(e core.Env) value.Value { panic("boom") })
	t.Fatal("Run returned instead of panicking")
}

func TestConfigValidation(t *testing.T) {
	f := register.NewFile()
	prog := func(e core.Env) value.Value { return 0 }
	cases := []exec.Config{
		{N: 0, File: f, Scheduler: sched.NewRoundRobin()},
		{N: 1, File: nil, Scheduler: sched.NewRoundRobin()},
		{N: 1, File: f, Scheduler: nil},
		{N: 1, File: f, Scheduler: sched.NewRoundRobin(), Faults: fault.New(fault.Crash(3, 1))},
	}
	for i, cfg := range cases {
		sess, err := Backend().NewSession(cfg, prog)
		if err == nil {
			sess.Close()
			t.Errorf("case %d: expected error", i)
			continue
		}
		// A nil *engine wrapped in a non-nil Session would look usable.
		if sess != nil {
			t.Errorf("case %d: NewSession returned a non-nil session with error %v", i, err)
		}
	}
	// Wrong program count.
	if _, err := runOnce(exec.Config{N: 3, File: f, Scheduler: sched.NewRoundRobin()}, 0, prog, prog); err == nil {
		t.Error("expected error for 2 programs / 3 processes")
	}
}

func TestTraceRecordsExecution(t *testing.T) {
	f := register.NewFile()
	r := f.Alloc1("x")
	log := trace.New()
	_, err := runOnce(exec.Config{N: 1, File: f, Scheduler: sched.NewRoundRobin(), Trace: log}, 1,
		func(e core.Env) value.Value {
			e.MarkInvoke("obj", 3)
			e.Write(r, 3)
			v := e.Read(r)
			e.CoinBool()
			e.MarkReturn("obj", value.Decide(v))
			return v
		})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[trace.Kind]int)
	for _, ev := range log.Events() {
		kinds[ev.Kind]++
	}
	want := map[trace.Kind]int{
		trace.Invoke: 1, trace.Write: 1, trace.Read: 1,
		trace.Coin: 1, trace.Return: 1, trace.Halt: 1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("trace has %d %s events, want %d\n%s", kinds[k], k, n, log)
		}
	}
	// Work-charged steps must be consecutively numbered.
	step := 0
	for _, ev := range log.Events() {
		if ev.Step >= 0 {
			if ev.Step != step {
				t.Errorf("step %d out of order (want %d)", ev.Step, step)
			}
			step++
		}
	}
}

func TestWorkAccounting(t *testing.T) {
	f := register.NewFile()
	r := f.Alloc1("x")
	prog := func(ops int) exec.Program {
		return func(e core.Env) value.Value {
			for i := 0; i < ops; i++ {
				e.Read(r)
			}
			e.CoinBool() // free
			return 0
		}
	}
	res, err := runOnce(exec.Config{N: 3, File: f, Scheduler: sched.NewRoundRobin()}, 1,
		prog(2), prog(5), prog(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Work[0] != 2 || res.Work[1] != 5 || res.Work[2] != 3 {
		t.Fatalf("Work = %v", res.Work)
	}
	if res.TotalWork != 10 {
		t.Fatalf("TotalWork = %d", res.TotalWork)
	}
	if res.MaxIndividualWork() != 5 {
		t.Fatalf("MaxIndividualWork = %d", res.MaxIndividualWork())
	}
}

func TestSharedProgramReplication(t *testing.T) {
	f := register.NewFile()
	res, err := runOnce(exec.Config{N: 5, File: f, Scheduler: sched.NewRoundRobin()}, 1,
		func(e core.Env) value.Value { return value.Value(e.PID()) })
	if err != nil {
		t.Fatal(err)
	}
	for pid, out := range res.Outputs {
		if out != value.Value(pid) {
			t.Fatalf("pid %d output %s", pid, out)
		}
	}
}
