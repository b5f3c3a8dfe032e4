package sim

// Step-loop microbenchmarks for the coroutine engine, across every adversary
// power class and a range of process counts, plus the preserved channel
// engine as the comparison baseline (see chanengine_test.go). These are the
// numbers behind DESIGN.md §"Step engine" and BENCH_sim.json; regenerate
// with:
//
//	go test ./internal/sim -bench StepLoop -benchmem
//
// The workload is a tight write/read/probwrite loop — one scheduled
// operation per step, no protocol logic — so the measurement isolates the
// runtime's per-step cost: view building, scheduler call, op execution, and
// process switch.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// powerRR is a round-robin scheduler that declares an arbitrary MinPower, so
// benchmarks exercise each power's view-building path (op restriction,
// memory image) without attack-strategy logic muddying the step cost.
type powerRR struct {
	power sched.Power
	inner *sched.RoundRobin
}

func (s *powerRR) Next(v *sched.View) int { return s.inner.Next(v) }
func (s *powerRR) Seed(src *xrand.Source) { s.inner.Seed(src) }
func (s *powerRR) Name() string           { return "bench-" + s.power.String() }
func (s *powerRR) MinPower() sched.Power  { return s.power }

// benchPowers lists every adversary power class.
var benchPowers = []sched.Power{
	sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive,
}

// benchNs is the process-count sweep.
var benchNs = []int{2, 16, 256}

// benchBody is the per-process workload, written generically so the same
// loop drives both engines.
func benchBody[E interface {
	PID() int
	Read(register.Reg) value.Value
	Write(register.Reg, value.Value)
	ProbWrite(register.Reg, value.Value, uint64, uint64) bool
}](e E, a register.Array) value.Value {
	r := a.At(e.PID() % a.Len)
	for i := 0; ; i++ {
		e.Write(r, value.Value(i))
		e.Read(r)
		e.ProbWrite(r, value.Value(i), 1, 2)
	}
}

func benchConfig(power sched.Power, n, steps int, f *register.File) Config {
	return Config{
		N: n, File: f, Scheduler: &powerRR{power: power, inner: sched.NewRoundRobin()},
		Seed: 1, MaxSteps: steps,
	}
}

// runStepLoop runs the coroutine engine for exactly `steps` scheduled
// operations and reports the observed step count.
func runStepLoop(power sched.Power, n, steps int) (int, error) {
	return runStepLoopPadded(power, n, 0, steps)
}

// runStepLoopPadded is runStepLoop on a file padded with `pad` registers
// that no process touches.
func runStepLoopPadded(power sched.Power, n, pad, steps int) (int, error) {
	f := register.NewFile()
	a := f.Alloc(n, "bench")
	f.Alloc(pad, "pad")
	res, err := Run(benchConfig(power, n, steps, f),
		func(e *Env) value.Value { return benchBody(e, a) })
	if err != nil && !errors.Is(err, exec.ErrStepLimit) {
		return 0, err
	}
	return res.TotalWork, nil
}

// runStepLoopChan is runStepLoop on the preserved channel engine.
func runStepLoopChan(power sched.Power, n, steps int) (int, error) {
	f := register.NewFile()
	a := f.Alloc(n, "bench")
	res, err := chanRun(benchConfig(power, n, steps, f),
		func(e *chanEnv) value.Value { return benchBody(e, a) })
	if err != nil && !errors.Is(err, exec.ErrStepLimit) {
		return 0, err
	}
	return res.TotalWork, nil
}

// BenchmarkStepLoop measures ns/step and allocs/step of the coroutine
// engine; b.N counts scheduled operations.
func BenchmarkStepLoop(b *testing.B) {
	for _, power := range benchPowers {
		for _, n := range benchNs {
			b.Run(fmt.Sprintf("%s/n=%d", power, n), func(b *testing.B) {
				b.ReportAllocs()
				work, err := runStepLoop(power, n, b.N)
				if err != nil {
					b.Fatal(err)
				}
				if work != b.N {
					b.Fatalf("executed %d steps, want %d", work, b.N)
				}
			})
		}
	}
}

// BenchmarkStepLoopChanEngine is the channel-engine baseline the rewrite is
// measured against.
func BenchmarkStepLoopChanEngine(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("oblivious/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			work, err := runStepLoopChan(sched.Oblivious, n, b.N)
			if err != nil {
				b.Fatal(err)
			}
			if work != b.N {
				b.Fatalf("executed %d steps, want %d", work, b.N)
			}
		})
	}
}

// TestStepLoopZeroAllocs pins the headline property of the rewrite: with
// tracing off, the steady-state step path performs zero allocations per
// step at every adversary power. Per-run setup (coroutines, buffers, rand
// streams) is amortized by the step count and must round to zero.
func TestStepLoopZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs a long run")
	}
	for _, power := range benchPowers {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if _, err := runStepLoop(power, 16, b.N); err != nil {
				b.Fatal(err)
			}
		})
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s/n=16: %d allocs/step, want 0 (%s)", power, a, r.MemString())
		}
	}
}

// TestStepEngineSpeedup is a regression tripwire for the rewrite's point:
// the coroutine switch must stay well ahead of the goroutine+channel
// handoff it replaced. The recorded speedup (see DESIGN.md; ≥3x required,
// >5x typical) is measured by the benchmarks above; this guard asserts a
// deliberately loose 2x so machine noise can't flake the suite.
func TestStepEngineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison needs a long run")
	}
	const steps = 300_000
	coro := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runStepLoop(sched.Oblivious, 16, steps); err != nil {
				b.Fatal(err)
			}
		}
	})
	chan_ := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runStepLoopChan(sched.Oblivious, 16, steps); err != nil {
				b.Fatal(err)
			}
		}
	})
	ratio := float64(chan_.NsPerOp()) / float64(coro.NsPerOp())
	t.Logf("oblivious n=16: coroutine %.1f ns/step, channel %.1f ns/step, speedup %.2fx",
		float64(coro.NsPerOp())/steps, float64(chan_.NsPerOp())/steps, ratio)
	if ratio < 2 {
		t.Errorf("coroutine engine only %.2fx faster than channel engine, want ≥2x (≥3x expected)", ratio)
	}
}

// TestMemoryViewCostIndependentOfFileSize pins what serving memory to the
// adversary costs: the live file and the one changed register, not a copy
// or a scan, so a step costs the same on a file padded with 8,192 registers
// no process touches. Each side is the best of five interleaved runs, and
// the padded one may cost at most 1.5x the bare one.
func TestMemoryViewCostIndependentOfFileSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison needs a long run")
	}
	const n, pad, steps, runs = 16, 8192, 100_000, 5
	for _, power := range []sched.Power{sched.LocationOblivious, sched.Adaptive} {
		perStep := func(pad int) time.Duration {
			start := time.Now()
			if _, err := runStepLoopPadded(power, n, pad, steps); err != nil {
				t.Fatal(err)
			}
			return time.Since(start) / steps
		}
		bare, padded := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < runs; i++ {
			bare = min(bare, perStep(0))
			padded = min(padded, perStep(pad))
		}
		ratio := float64(padded) / float64(bare)
		t.Logf("%s n=%d: %v/step bare, %v/step with %d padding registers (%.2fx)", power, n, bare, padded, pad, ratio)
		if ratio > 1.5 {
			t.Errorf("%s: padding the file by %d registers made a step %.2fx slower, want at most 1.5x", power, pad, ratio)
		}
	}
}
