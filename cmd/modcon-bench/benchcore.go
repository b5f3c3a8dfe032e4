package main

// -bench-core: microbenchmark the simulator's step engine itself (rather
// than any experiment built on it) and emit BENCH_sim.json — the repo's
// machine-readable perf baseline for the hot path. One cell per (adversary
// power, process count): a tight write/read/probwrite loop, tracing off,
// measuring ns/step, steps/sec, and allocs/step. CI runs this with a tiny
// budget to validate the schema; real baselines use the default budget.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// benchSched is round-robin with a declared power class, so each cell
// exercises that power's view-building path without adversary-strategy cost.
type benchSched struct {
	power sched.Power
	inner *sched.RoundRobin
}

func (s *benchSched) Next(v *sched.View) int { return s.inner.Next(v) }
func (s *benchSched) Seed(src *xrand.Source) { s.inner.Seed(src) }
func (s *benchSched) Name() string           { return "bench-" + s.power.String() }
func (s *benchSched) MinPower() sched.Power  { return s.power }

// coreCell is one row of BENCH_sim.json.
type coreCell struct {
	Power         string  `json:"power"`
	N             int     `json:"n"`
	Steps         int     `json:"steps"`
	NsPerStep     float64 `json:"nsPerStep"`
	StepsPerSec   float64 `json:"stepsPerSec"`
	AllocsPerStep int64   `json:"allocsPerStep"`
	BytesPerStep  int64   `json:"bytesPerStep"`
}

// coreReport is the BENCH_sim.json schema. Consumers (CI schema check,
// trajectory tooling) rely on bench, manifest.goVersion,
// manifest.gomaxprocs, and results with the coreCell fields above; the
// scaling section (present when -bench-scaling ran) carries the
// worker-parallelism curve and its bit-identity digests.
type coreReport struct {
	Bench    string         `json:"bench"`
	Manifest obs.Manifest   `json:"manifest"`
	Budget   string         `json:"budgetPerCell"`
	Results  []coreCell     `json:"results"`
	Scaling  *scalingReport `json:"scaling,omitempty"`
}

// runCoreCell executes exactly `steps` scheduled operations of the step-loop
// workload under the given power and process count, tracing off.
func runCoreCell(power sched.Power, n, steps int, regs register.Semantics) error {
	f := register.NewFile()
	a := f.Alloc(n, "bench")
	prog := func(e core.Env) value.Value {
		r := a.At(e.PID() % a.Len)
		for i := 0; ; i++ {
			e.Write(r, value.Value(i))
			e.Read(r)
			e.ProbWrite(r, value.Value(i), 1, 2)
		}
	}
	res, err := harness.RunProgram(prog, harness.ObjectConfig{
		N: n, File: f, Seed: 1, MaxSteps: steps,
		Scheduler: &benchSched{power: power, inner: sched.NewRoundRobin()},
		Registers: regs,
	})
	if err != nil && !errors.Is(err, exec.ErrStepLimit) {
		return err
	}
	if res.TotalWork != steps {
		return fmt.Errorf("bench-core: executed %d steps, want %d", res.TotalWork, steps)
	}
	return nil
}

// measureCoreCell grows the step count until a run fills the time budget,
// then reports the final run's per-step figures. Allocation counts are
// process-wide malloc deltas; per-run setup is amortized by the step count.
func measureCoreCell(power sched.Power, n int, budget time.Duration, regs register.Semantics) (coreCell, error) {
	steps := 50_000
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := runCoreCell(power, n, steps, regs); err != nil {
			return coreCell{}, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if elapsed >= budget || steps >= 1<<26 {
			ns := float64(elapsed.Nanoseconds()) / float64(steps)
			return coreCell{
				Power:         power.String(),
				N:             n,
				Steps:         steps,
				NsPerStep:     ns,
				StepsPerSec:   1e9 / ns,
				AllocsPerStep: int64(m1.Mallocs-m0.Mallocs) / int64(steps),
				BytesPerStep:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(steps),
			}, nil
		}
		// Scale toward the budget, at least doubling to converge fast.
		grow := int(float64(steps) * float64(budget) / float64(elapsed+1))
		if grow < steps*2 {
			grow = steps * 2
		}
		steps = grow
	}
}

// benchOpts selects which bench modes contribute to the BENCH_sim.json
// report and their knobs.
type benchOpts struct {
	Out            string
	Core           bool          // -bench-core: the (power × n) step-loop matrix
	Scaling        bool          // -bench-scaling: the worker-parallelism curve
	Budget         time.Duration // per step-loop cell
	Ns             []int
	ScalingTrials  int
	ScalingWorkers []int // nil = auto {1, 2, 4, …, NumCPU}
	Seed           uint64
	// Registers is the register model for every bench cell (step-loop and
	// scaling); the manifest and the scaling section both attribute it.
	Registers register.Semantics
}

// runBench runs the selected microbenchmark modes and writes one combined
// JSON report: -bench-core fills results, -bench-scaling fills scaling, and
// running both yields the full baseline artifact.
func runBench(opts benchOpts) error {
	manifest := obs.NewManifest("modcon-bench")
	manifest.Seed = opts.Seed // step-loop cells always run at seed 1
	manifest.Backend = "sim"
	manifest.Registers = opts.Registers.String()
	manifest.Config = map[string]string{
		"registers":       opts.Registers.String(),
		"bench-out":       opts.Out,
		"bench-budget":    opts.Budget.String(),
		"bench-n":         intsCSV(opts.Ns),
		"bench-core":      fmt.Sprint(opts.Core),
		"bench-scaling":   fmt.Sprint(opts.Scaling),
		"scaling-trials":  fmt.Sprint(opts.ScalingTrials),
		"scaling-workers": intsCSV(opts.ScalingWorkers),
		"seed":            fmt.Sprint(opts.Seed),
	}
	report := coreReport{
		Bench:    "sim-step-loop",
		Manifest: manifest,
		Budget:   opts.Budget.String(),
		Results:  []coreCell{},
	}
	if opts.Core {
		powers := []sched.Power{
			sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive,
		}
		for _, power := range powers {
			for _, n := range opts.Ns {
				cell, err := measureCoreCell(power, n, opts.Budget, opts.Registers)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "bench-core: %-19s n=%-4d %10.1f ns/step %12.0f steps/sec %d allocs/step\n",
					cell.Power, cell.N, cell.NsPerStep, cell.StepsPerSec, cell.AllocsPerStep)
				report.Results = append(report.Results, cell)
			}
		}
	}
	if opts.Scaling {
		scaling, err := runBenchScaling(opts.ScalingWorkers, opts.ScalingTrials, opts.Seed, opts.Registers)
		if err != nil {
			return err
		}
		report.Scaling = scaling
	}
	f, err := os.Create(opts.Out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d step-loop cells, %d scaling cells)\n",
		opts.Out, len(report.Results), scalingCellCount(report.Scaling))
	return nil
}

// scalingCellCount is nil-safe len for the log line above.
func scalingCellCount(s *scalingReport) int {
	if s == nil {
		return 0
	}
	return len(s.Results)
}

// intsCSV renders the -bench-n list back to its csv form for the manifest.
func intsCSV(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// parseBenchNs parses the csv of positive counts given to -flag (-bench-n,
// -scaling-workers).
func parseBenchNs(flag, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-%s: bad entry %q (want a count ≥ 1)", flag, part)
		}
		out = append(out, n)
	}
	return out, nil
}
