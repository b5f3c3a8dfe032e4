package live

import (
	"context"
	"errors"
	"testing"
	"unsafe"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

func TestPaddedCellFillsCacheLine(t *testing.T) {
	// The false-sharing guard must hold for whatever size value.AtomicValue
	// has: cells round up to a whole number of cache lines.
	if s := unsafe.Sizeof(paddedCell{}); s%cacheLine != 0 {
		t.Fatalf("paddedCell is %d bytes, not a multiple of the %d-byte cache line", s, cacheLine)
	}
	if s, c := unsafe.Sizeof(paddedCell{}), unsafe.Sizeof(value.AtomicValue{}); s < c {
		t.Fatalf("paddedCell (%d bytes) smaller than its cell (%d bytes)", s, c)
	}
}

func TestMemoryMirrorsFile(t *testing.T) {
	file := register.NewFile()
	a := file.Alloc1("a")
	b := file.Alloc1("b")
	file.Init(b, 0)
	file.Store(a, 9)
	mem := NewMemory(file)
	if got := mem.Load(a); got != 9 {
		t.Fatalf("a = %s", got)
	}
	if got := mem.Load(b); got != 0 {
		t.Fatalf("b = %s", got)
	}
	mem.Store(a, 4)
	if got := mem.Load(a); got != 4 {
		t.Fatalf("a after store = %s", got)
	}
	if file.Load(a) != 9 {
		t.Fatal("live store leaked into the simulated file")
	}
}

func TestRunValidation(t *testing.T) {
	file := register.NewFile()
	noop := func(e core.Env) value.Value { return 0 }
	if _, err := Run(exec.Config{N: 0, File: file}, noop); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Run(exec.Config{N: 1}, noop); err == nil {
		t.Fatal("nil file accepted")
	}
	if _, err := Run(exec.Config{N: 2, File: file}, noop, noop, noop); err == nil {
		t.Fatal("3 programs for 2 processes accepted")
	}
	if _, err := Run(exec.Config{N: 1, File: file, Scheduler: sched.NewRoundRobin()}, noop); err == nil {
		t.Fatal("scheduler accepted by the live backend")
	}
}

func TestBackendCapabilities(t *testing.T) {
	be := Backend()
	if be.Name() != "live" {
		t.Fatalf("Name = %q", be.Name())
	}
	caps := be.Capabilities()
	if caps.Adversary || caps.Tracing {
		t.Fatalf("live claims sim-only capabilities: %+v", caps)
	}
}

func TestRunBasics(t *testing.T) {
	file := register.NewFile()
	r := file.Alloc1("x")
	res, err := Run(exec.Config{N: 4, File: file, Seed: 1}, func(e core.Env) value.Value {
		e.Write(r, value.Value(e.PID()))
		return e.Read(r) // some pid's value
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, out := range res.Outputs {
		if out < 0 || out > 3 {
			t.Fatalf("pid %d read %s", pid, out)
		}
		if !res.Halted[pid] || res.Crashed[pid] {
			t.Fatalf("pid %d fate: halted=%v crashed=%v", pid, res.Halted[pid], res.Crashed[pid])
		}
	}
	if res.TotalWork != 8 || res.Steps != 8 {
		t.Fatalf("TotalWork = %d, Steps = %d, want 8", res.TotalWork, res.Steps)
	}
	for _, w := range res.Work {
		if w != 2 {
			t.Fatalf("Work = %v", res.Work)
		}
	}
}

func TestCoinDeterminismPerSeedPerPid(t *testing.T) {
	file := register.NewFile()
	run := func() []value.Value {
		res, err := Run(exec.Config{N: 3, File: file, Seed: 42}, func(e core.Env) value.Value {
			return value.Value(e.CoinIntn(1 << 20))
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("coin streams not reproducible per (seed, pid)")
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatal("all pids share one coin stream")
	}
}

// TestSessionRunIsRun: a live session runs each trial as Run under the
// session's config with the trial's seed and context — the same coins per
// seed, any number of times, and a cancelled context cancels the trial.
func TestSessionRunIsRun(t *testing.T) {
	file := register.NewFile()
	cfg := exec.Config{N: 3, File: file}
	prog := func(e core.Env) value.Value { return value.Value(e.CoinIntn(1 << 20)) }
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, seed := range []uint64{5, 9, 5} {
		got, err := sess.Run(nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		want, err := Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		for pid := range want.Outputs {
			if got.Outputs[pid] != want.Outputs[pid] {
				t.Fatalf("seed %d pid %d: session coin %s, Run coin %s", seed, pid, got.Outputs[pid], want.Outputs[pid])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := file.Alloc1("spin")
	spin := func(e core.Env) value.Value {
		for {
			e.Read(r)
		}
	}
	spinSess, err := Backend().NewSession(exec.Config{N: 2, File: file}, spin)
	if err != nil {
		t.Fatal(err)
	}
	defer spinSess.Close()
	if _, err := spinSess.Run(ctx, 1); !errors.Is(err, exec.ErrCancelled) {
		t.Fatalf("cancelled trial: err = %v, want ErrCancelled", err)
	}
}

func TestCollectCostModes(t *testing.T) {
	file := register.NewFile()
	arr := file.Alloc(5, "arr")
	res, err := Run(exec.Config{N: 1, File: file, Seed: 1, CheapCollect: true}, func(e core.Env) value.Value {
		e.Collect(arr)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWork != 1 {
		t.Fatalf("cheap collect cost %d", res.TotalWork)
	}
	res, err = Run(exec.Config{N: 1, File: file, Seed: 1}, func(e core.Env) value.Value {
		e.Collect(arr)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWork != 5 {
		t.Fatalf("linear collect cost %d", res.TotalWork)
	}
}

func TestCrashAfterInjection(t *testing.T) {
	file := register.NewFile()
	r := file.Alloc1("x")
	res, err := Run(exec.Config{
		N: 2, File: file, Seed: 1,
		Faults: fault.New(fault.Crash(0, 3)),
	}, func(e core.Env) value.Value {
		for i := 0; i < 10; i++ {
			e.Write(r, value.Value(i))
		}
		return 99
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || res.Halted[0] {
		t.Fatalf("pid 0 fate: crashed=%v halted=%v", res.Crashed[0], res.Halted[0])
	}
	if !res.Outputs[0].IsNone() {
		t.Fatalf("crashed pid output = %s, want ⊥", res.Outputs[0])
	}
	if res.Work[0] != 3 {
		t.Fatalf("crashed pid did %d ops, want exactly 3 (last op takes effect)", res.Work[0])
	}
	if !res.Halted[1] || res.Work[1] != 10 {
		t.Fatalf("pid 1 fate: halted=%v work=%d", res.Halted[1], res.Work[1])
	}
}

func TestContextCancellation(t *testing.T) {
	file := register.NewFile()
	r := file.Alloc1("x")
	ctx, cancel := context.WithCancel(context.Background())
	res, err := Run(exec.Config{
		N: 2, File: file, Seed: 1, Context: ctx,
	}, func(e core.Env) value.Value {
		for i := 0; ; i++ {
			if i == 50 && e.PID() == 0 {
				cancel()
			}
			e.Write(r, value.Value(i))
		}
	})
	if !errors.Is(err, exec.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	for pid := range res.Halted {
		if res.Halted[pid] || res.Crashed[pid] {
			t.Fatalf("pid %d fate after cancel: halted=%v crashed=%v", pid, res.Halted[pid], res.Crashed[pid])
		}
	}
}

func TestStepBudget(t *testing.T) {
	file := register.NewFile()
	r := file.Alloc1("x")
	res, err := Run(exec.Config{
		N: 2, File: file, Seed: 1, MaxSteps: 100,
	}, func(e core.Env) value.Value {
		for i := 0; ; i++ {
			e.Write(r, value.Value(i))
		}
	})
	if !errors.Is(err, exec.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	// The budget stops the run within one in-flight operation per process.
	if res.TotalWork > 100+2 {
		t.Fatalf("TotalWork = %d, budget 100 overrun by more than n", res.TotalWork)
	}
}

// buildConsensus assembles the paper's binary protocol against a file.
func buildConsensus(n int) (*register.File, *core.Protocol, error) {
	file := register.NewFile()
	proto, err := recipe.Spec{N: n, M: 2, FastPath: true, Stages: 64, Fallback: true}.Build(file)
	return file, proto, err
}

func TestLiveBinaryConsensus(t *testing.T) {
	// The full protocol under real goroutine concurrency: agreement and
	// validity must hold on every run (safety is schedule-independent).
	for _, n := range []int{2, 4, 8} {
		for seed := uint64(0); seed < 20; seed++ {
			file, proto, err := buildConsensus(n)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]value.Value, n)
			for i := range inputs {
				inputs[i] = value.Value(i % 2)
			}
			res, err := Run(exec.Config{N: n, File: file, Seed: seed}, func(e core.Env) value.Value {
				out, ok := proto.Run(e, inputs[e.PID()])
				if !ok {
					t.Errorf("pid %d fell off the chain", e.PID())
				}
				return out
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := check.Consensus(inputs, res.HaltedOutputs()); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if err := check.WorkAccounting(res.Work, res.TotalWork); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestLiveConsensusRace(t *testing.T) {
	// Run with -race in CI: exercises concurrent atomic access patterns.
	file, proto, err := buildConsensus(4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []value.Value{0, 1, 1, 0}
	res, err := Run(exec.Config{N: 4, File: file, Seed: 7}, func(e core.Env) value.Value {
		out, _ := proto.Run(e, inputs[e.PID()])
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Consensus(inputs, res.HaltedOutputs()); err != nil {
		t.Fatal(err)
	}
}
