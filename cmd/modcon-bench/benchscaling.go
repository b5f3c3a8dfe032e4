package main

// -bench-scaling: measure how the pooled trial engine scales with worker
// parallelism. One cell per worker count w ∈ {1, 2, 4, …, NumCPU}: the same
// consensus sweep — same root seed, one pooled session per worker reused
// across all of its trials — runs with GOMAXPROCS and the harness worker
// count both set to w, recording wall time, throughput, speedup over w=1,
// and a digest of the aggregate histograms. The digests are the teeth of
// the determinism contract at every point on the curve: parallelism may
// move wall-clock, never the aggregates.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// scalingN is the process count of the scaling workload: big enough that a
// trial does real work, small enough that trial dispatch (the thing being
// scaled) stays visible.
const scalingN = 8

// scalingSpec is the scaling workload's protocol: full binary consensus
// (impatient conciliators, binary ratifiers, fast path, no fallback).
var scalingSpec = recipe.Spec{N: scalingN, M: 2, FastPath: true}

// scalingCell is one point on the scaling curve.
type scalingCell struct {
	Workers int `json:"workers"`
	// Gomaxprocs is runtime.GOMAXPROCS(0) read inside the pinned region the
	// cell actually ran under (the per-cell pin, not the launch value the
	// manifest records).
	Gomaxprocs     int     `json:"gomaxprocs"`
	Seconds        float64 `json:"seconds"`
	NsPerTrial     float64 `json:"nsPerTrial"`
	TrialsPerSec   float64 `json:"trialsPerSec"`
	AllocsPerTrial int64   `json:"allocsPerTrial"`
	// Speedup is throughput relative to the workers=1 cell.
	Speedup float64 `json:"speedup"`
	// Digest is a sha256 over the aggregate step/work histograms and the
	// decision tally; every cell of a correct run carries the same digest.
	Digest string `json:"digest"`
}

// scalingReport is the "scaling" section of BENCH_sim.json.
type scalingReport struct {
	// Workload names the sweep ("consensus-sweep"), N and TrialsPerCell its
	// shape, Seed the root seed every cell shares.
	Workload      string `json:"workload"`
	N             int    `json:"n"`
	TrialsPerCell int    `json:"trialsPerCell"`
	Seed          uint64 `json:"seed"`
	// Registers is the register model every cell ran under; every model
	// keeps the same bit-identity contract.
	Registers string `json:"registers"`
	// IdenticalAggregates is true iff every cell produced the same digest —
	// the bit-identity guarantee, pre-checked so consumers need not compare.
	IdenticalAggregates bool          `json:"identicalAggregates"`
	Results             []scalingCell `json:"results"`
}

// scalingWorkerCounts returns {1, 2, 4, …} capped by (and always including)
// NumCPU.
func scalingWorkerCounts() []int {
	top := runtime.NumCPU()
	var out []int
	for w := 1; w < top; w *= 2 {
		out = append(out, w)
	}
	return append(out, top)
}

// scalingSweep builds the workload spec: full binary consensus (impatient
// conciliators, binary ratifiers, fast path) under the uniform-random
// adversary, with the mixed-input pattern the experiments use, on the regs
// register model. Build runs once per pooled session — at most `workers`
// times per cell — and its cost is amortized over every trial that session
// runs. The aggregates stay bit-identical at any worker count under every
// register model.
func scalingSweep(regs register.Semantics) harness.ProtocolSweep {
	return harness.ProtocolSweep{
		Build: func() (*core.Protocol, harness.ObjectConfig) {
			file := register.NewFile()
			proto, err := scalingSpec.Build(file)
			if err != nil {
				panic(err) // unreachable: scalingSpec is valid
			}
			return proto, harness.ObjectConfig{
				N: scalingN, File: file,
				Inputs:    []value.Value{0},
				Scheduler: sched.NewUniformRandom(),
				Registers: regs,
			}
		},
		Inputs: func(tr harness.Trial) []value.Value {
			inputs := make([]value.Value, scalingN)
			for p := range inputs {
				inputs[p] = value.Value((p + tr.Index) % 2)
			}
			return inputs
		},
	}
}

// runScalingCell runs the sweep at one worker count and folds the aggregate
// histograms. GOMAXPROCS is pinned to the worker count for the cell so the
// curve reflects CPU parallelism, not just pool width.
func runScalingCell(workers, trials int, seed uint64, regs register.Semantics) (scalingCell, error) {
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	// Read the pin back inside the region so the cell records the setting it
	// measurably ran under, not the value this function intended to set.
	gomaxprocs := runtime.GOMAXPROCS(0)

	var steps, work obs.Hist
	decided := 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := harness.SweepProtocol(
		harness.Sweep{Trials: trials, Workers: workers, Seed: seed},
		scalingSweep(regs),
		func(tr harness.Trial, run *harness.ProtocolRun) {
			steps.AddInt(run.Result.TotalWork)
			work.AddInt(run.Result.MaxIndividualWork())
			if len(run.DecidedOutputs()) == scalingN {
				decided++
			}
		})
	if err != nil {
		return scalingCell{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	digest, err := scalingDigest(&steps, &work, decided)
	if err != nil {
		return scalingCell{}, err
	}
	secs := elapsed.Seconds()
	return scalingCell{
		Workers:        workers,
		Gomaxprocs:     gomaxprocs,
		Seconds:        secs,
		NsPerTrial:     float64(elapsed.Nanoseconds()) / float64(trials),
		TrialsPerSec:   float64(trials) / secs,
		AllocsPerTrial: int64(m1.Mallocs-m0.Mallocs) / int64(trials),
		Digest:         digest,
	}, nil
}

// scalingDigest hashes the aggregate histograms (full bucket contents, via
// their canonical JSON encodings) plus the decision tally.
func scalingDigest(steps, work *obs.Hist, decided int) (string, error) {
	payload := struct {
		Steps   *obs.Hist `json:"steps"`
		Work    *obs.Hist `json:"work"`
		Decided int       `json:"decided"`
	}{steps, work, decided}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(b)), nil
}

// runBenchScaling sweeps the worker counts (explicit list, or the powers of
// two up to NumCPU) and assembles the report. Worker counts above NumCPU
// are legal — oversubscription still must not move the aggregates.
func runBenchScaling(workerCounts []int, trials int, seed uint64, regs register.Semantics) (*scalingReport, error) {
	if len(workerCounts) == 0 {
		workerCounts = scalingWorkerCounts()
	}
	report := &scalingReport{
		Workload:            "consensus-sweep",
		N:                   scalingN,
		TrialsPerCell:       trials,
		Seed:                seed,
		Registers:           regs.String(),
		IdenticalAggregates: true,
	}
	for _, w := range workerCounts {
		cell, err := runScalingCell(w, trials, seed, regs)
		if err != nil {
			return nil, err
		}
		if len(report.Results) > 0 {
			base := report.Results[0]
			cell.Speedup = cell.TrialsPerSec / base.TrialsPerSec
			if cell.Digest != base.Digest {
				report.IdenticalAggregates = false
			}
		} else {
			cell.Speedup = 1
		}
		fmt.Fprintf(os.Stderr, "bench-scaling: workers=%-3d %8.2fs %10.0f trials/sec  speedup %.2fx  %s\n",
			cell.Workers, cell.Seconds, cell.TrialsPerSec, cell.Speedup, cell.Digest[:16])
		report.Results = append(report.Results, cell)
	}
	if !report.IdenticalAggregates {
		return report, fmt.Errorf("bench-scaling: aggregates diverged across worker counts — determinism contract broken")
	}
	return report, nil
}
