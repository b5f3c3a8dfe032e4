package live

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// TestCrashAtOpZero: threshold 0 crashes the process before its first
// operation — it does nothing at all.
func TestCrashAtOpZero(t *testing.T) {
	file := register.NewFile()
	r := file.Alloc1("x")
	res, err := run(nil, exec.Config{
		N: 2, File: file,
		Faults: fault.New(fault.Crash(0, 0)),
	}, 1, func(e core.Env) value.Value {
		e.Write(r, 7)
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || res.Halted[0] || res.Work[0] != 0 {
		t.Fatalf("pid 0: crashed=%v halted=%v work=%d, want crashed with zero ops",
			res.Crashed[0], res.Halted[0], res.Work[0])
	}
	if !res.Outputs[0].IsNone() {
		t.Fatalf("pid 0 output = %s, want ⊥", res.Outputs[0])
	}
	if !res.Halted[1] || res.Work[1] != 1 {
		t.Fatalf("pid 1: halted=%v work=%d", res.Halted[1], res.Work[1])
	}
}

// TestCrashAllProcesses: every process crashing is a completed (errorless)
// execution with no survivors — the run must terminate, not hang.
func TestCrashAllProcesses(t *testing.T) {
	file := register.NewFile()
	r := file.Alloc1("x")
	res, err := run(nil, exec.Config{
		N: 4, File: file,
		Faults: fault.New(fault.Crash(fault.AllProcs, 2)),
	}, 1, func(e core.Env) value.Value {
		for i := 0; i < 100; i++ {
			e.Write(r, value.Value(i))
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 4; pid++ {
		if !res.Crashed[pid] || res.Halted[pid] || res.Work[pid] != 2 {
			t.Fatalf("pid %d: crashed=%v halted=%v work=%d, want crashed at 2 ops",
				pid, res.Crashed[pid], res.Halted[pid], res.Work[pid])
		}
	}
	if res.TotalWork != 8 {
		t.Fatalf("TotalWork = %d, want 8", res.TotalWork)
	}
}

// TestCrashSingleProcess: n=1 with its only process crashing must terminate
// cleanly (nothing else can make progress or decide).
func TestCrashSingleProcess(t *testing.T) {
	file := register.NewFile()
	r := file.Alloc1("x")
	res, err := run(nil, exec.Config{
		N: 1, File: file,
		Faults: fault.New(fault.Crash(0, 3)),
	}, 1, func(e core.Env) value.Value {
		for i := 0; i < 10; i++ {
			e.Write(r, value.Value(i))
		}
		return 9
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || res.Halted[0] || res.Work[0] != 3 {
		t.Fatalf("crashed=%v halted=%v work=%d", res.Crashed[0], res.Halted[0], res.Work[0])
	}
	if !res.Outputs[0].IsNone() {
		t.Fatalf("output = %s, want ⊥", res.Outputs[0])
	}
}

// TestCrashDuringFinalDecideWrite pins the paper's crash semantics at the
// worst possible moment: a process crashes on the very operation that
// announces its decision. The write must take effect (last op lands), the
// crashed process must never observe it (no halt, output ⊥) — and a peer
// must be able to read the announced value.
func TestCrashDuringFinalDecideWrite(t *testing.T) {
	file := register.NewFile()
	decide := file.Alloc1("decide")
	const announced = 7
	// pid 0 performs exactly 3 ops; the 3rd is its decide write, where the
	// crash lands. pid 1 spins until the announcement is visible.
	res, err := run(nil, exec.Config{
		N: 2, File: file,
		Faults: fault.New(fault.Crash(0, 3)),
	}, 1, func(e core.Env) value.Value {
		if e.PID() == 0 {
			e.Read(decide)
			e.Read(decide)
			e.Write(decide, announced) // 3rd op: crash fires here
			return 1                   // never reached
		}
		for {
			if v := e.Read(decide); v == announced {
				return v
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || res.Halted[0] || res.Work[0] != 3 {
		t.Fatalf("pid 0: crashed=%v halted=%v work=%d, want crash on its 3rd op",
			res.Crashed[0], res.Halted[0], res.Work[0])
	}
	if !res.Outputs[0].IsNone() {
		t.Fatalf("crashed pid observed its own decide: output %s", res.Outputs[0])
	}
	if !res.Halted[1] || res.Outputs[1] != announced {
		t.Fatalf("pid 1: halted=%v output=%s, want to read the announced %d",
			res.Halted[1], res.Outputs[1], announced)
	}
}

// TestLiveConsensusUnderCrashFaults: the full protocol with a minority of
// planned crashes still satisfies agreement and validity among survivors.
func TestLiveConsensusUnderCrashFaults(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		n := 4
		file, proto, err := buildConsensus(n)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []value.Value{0, 1, 1, 0}
		res, err := run(nil, exec.Config{
			N: n, File: file,
			Faults: fault.New(fault.Crash(0, 4)),
		}, seed, func(e core.Env) value.Value {
			out, _ := proto.Run(e, inputs[e.PID()])
			return out
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Consensus(inputs, res.HaltedOutputs()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
