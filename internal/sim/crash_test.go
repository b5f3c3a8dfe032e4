package sim

// Crash-injection semantics under the coroutine engine. The model (§2): a
// crashed process's final operation takes effect, the process never observes
// the result, and the adversary never schedules it again. These tests pin
// all three properties on the trace itself, and diff the whole crash
// behavior (events and Result) against the preserved channel engine.

import (
	"fmt"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// TestCrashNeverRescheduled asserts, from the trace, that a crashed process
// emits no event of any kind after its Crash marker, performed exactly its
// crash-limit of operations, and produced no decision.
func TestCrashNeverRescheduled(t *testing.T) {
	crash := map[int]int{0: 3, 2: 7}
	f := register.NewFile()
	a := f.Alloc(4, "arr")
	log := trace.New()
	res, err := runOnce(exec.Config{
		N: 4, File: f, Scheduler: sched.NewUniformRandom(),
		Trace: log, Faults: fault.FromCrashMap(crash), CheapCollect: true,
	}, 77, func(e core.Env) value.Value { return equivBody(e, a) })
	if err != nil {
		t.Fatal(err)
	}
	crashedAt := map[int]int{}
	for i, ev := range log.Events() {
		if ev.Kind == trace.Crash {
			if _, ok := crash[ev.PID]; !ok {
				t.Fatalf("unexpected crash of pid %d", ev.PID)
			}
			crashedAt[ev.PID] = i
		}
	}
	if len(crashedAt) != len(crash) {
		t.Fatalf("crash events for %v, want %v", crashedAt, crash)
	}
	for i, ev := range log.Events() {
		if at, ok := crashedAt[ev.PID]; ok && i > at {
			t.Fatalf("crashed pid %d active after its crash: event %d %s", ev.PID, i, ev)
		}
	}
	for pid, limit := range crash {
		if !res.Crashed[pid] || res.Halted[pid] {
			t.Fatalf("pid %d: crashed=%v halted=%v", pid, res.Crashed[pid], res.Halted[pid])
		}
		if res.Work[pid] != limit {
			t.Fatalf("pid %d work = %d, want crash limit %d", pid, res.Work[pid], limit)
		}
		if !res.Outputs[pid].IsNone() {
			t.Fatalf("pid %d has output %s after crash", pid, res.Outputs[pid])
		}
	}
}

// TestCrashLastOpTakesEffect crashes a writer on its very first operation
// and has a reader spin until the value lands: the crashed op must be
// visible in shared memory even though the writer never resumed.
func TestCrashLastOpTakesEffect(t *testing.T) {
	f := register.NewFile()
	r := f.Alloc1("x")
	writer := func(e core.Env) value.Value {
		e.Write(r, 123)
		t.Error("crashed writer resumed past its final op")
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
	if res.Outputs[1] != 123 {
		t.Fatalf("survivor read %s, want the crashed process's final write 123", res.Outputs[1])
	}
}

// TestAllProcessesCrash drives every process to its crash limit: the run
// must terminate cleanly (no step limit, no hang) with nobody halted.
func TestAllProcessesCrash(t *testing.T) {
	f := register.NewFile()
	a := f.Alloc(3, "arr")
	res, err := runOnce(exec.Config{
		N: 3, File: f, Scheduler: sched.NewRoundRobin(),
		Faults: fault.FromCrashMap(map[int]int{0: 2, 1: 1, 2: 4}),
	}, 9, func(e core.Env) value.Value { return equivBody(e, a) })
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWork != 2+1+4 {
		t.Fatalf("TotalWork = %d, want 7", res.TotalWork)
	}
	for pid := 0; pid < 3; pid++ {
		if !res.Crashed[pid] || res.Halted[pid] {
			t.Fatalf("pid %d: crashed=%v halted=%v", pid, res.Crashed[pid], res.Halted[pid])
		}
	}
}

// TestCrashMatchesChanEngine sweeps crash patterns and seeds and requires
// the coroutine engine's crash behavior — trace events and Result — to be
// bit-identical to the channel engine's.
func TestCrashMatchesChanEngine(t *testing.T) {
	patterns := []map[int]int{
		{0: 1},
		{1: 5},
		{0: 3, 2: 7},
		{0: 2, 1: 2, 2: 2, 3: 2},
	}
	for pi, crash := range patterns {
		for seed := uint64(1); seed <= 10; seed++ {
			c := equivCase{
				name: fmt.Sprintf("crash-pattern-%d", pi), n: 4, regs: 4,
				cheap: pi%2 == 0, crash: crash,
				mk: func() sched.Scheduler { return sched.NewUniformRandom() },
			}
			wantRes, wantLog := runEquivChan(t, c, seed)
			gotRes, gotLog := runEquivNew(t, c, seed)
			name := fmt.Sprintf("%s/seed=%d", c.name, seed)
			diffTraces(t, name, wantLog.Events(), gotLog.Events())
			diffResults(t, name, wantRes, gotRes)
		}
	}
}
