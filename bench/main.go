// Command modcon-e2e is modcon's end-to-end benchmark: what a caller pays for
// a consensus decision, end to end and layer by layer.
//
// It runs one of four closed-loop workloads (solve-n8-attack,
// sweep-n32-attack, trials-n32-faults, exp-e6) in its own subprocess with
// GOMAXPROCS pinned to min(2, nproc), checks every execution's agreement and
// validity, folds (op index, decided value, total work) into a digest, and
// prints every metric with its unit. Execution is simulated shared memory
// with no injected delay, so latency is processor time only. The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload solve-n8-attack --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload sweep-n32-attack --trace 1 --trace-out spans.jsonl
//	bash bench/run.sh -compare 'base/*.json' 'head/*.json'
//	bash bench/run.sh -aa 5 --seconds 20
//
// With --trace 1 each measured round runs twice, untraced and then traced
// through decorators that time every call into a layer; the traced run must
// reproduce the untraced digest, and its metrics are the per-layer ones. See
// bench/README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// procs is the GOMAXPROCS and worker count of every workload process.
var procs = min(2, runtime.NumCPU())

func main() {
	mainStart := now()
	var (
		workload  = flag.String("workload", "", "workload to run; empty runs every workload")
		seed      = flag.Uint64("seed", 1, "seed all inputs are derived from")
		seconds   = flag.Int("seconds", 20, "measured seconds, split over the workload processes as rounds of fixed work")
		traceFlag = flag.Int("trace", 0, "1 adds a traced run of the same ops and reports per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write the traced run's spans here (JSON lines)")
		out       = flag.String("out", "", "write the full result (manifest, metrics, digest) to this file")
		bench     = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
		compare   = flag.Bool("compare", false, "compare two sets of result files: -compare BASE_GLOB HEAD_GLOB")
		aa        = flag.Int("aa", 0, "A/A self-check: run two interleaved sets of N runs and compare them")
		aaDir     = flag.String("aa-dir", ".bench_build/aa", "where -aa writes its result files")
		child     = flag.Bool("child", false, "internal: run the workload in this process")
	)
	flag.Parse()
	switch {
	case *child:
		os.Exit(childMain(*workload, *seed, *seconds, *traceFlag == 1, *traceOut, mainStart))
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "modcon-e2e: -compare takes two result-file globs: BASE HEAD")
			os.Exit(2)
		}
		rep, err := compareGlobs(*bench, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
			os.Exit(2)
		}
		if rep.regressions+rep.flags > 0 {
			os.Exit(1)
		}
	case *aa > 0:
		os.Exit(runAA(*aa, *workload, *seed, *seconds, *bench, *aaDir))
	default:
		if *traceFlag != 0 && *traceFlag != 1 {
			fmt.Fprintln(os.Stderr, "modcon-e2e: -trace must be 0 or 1")
			os.Exit(2)
		}
		os.Exit(drive(driveOpts{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
			traceOut: *traceOut, out: *out,
		}))
	}
}
