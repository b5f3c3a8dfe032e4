// Command modcon-bench regenerates the paper's quantitative claims.
//
// Each experiment (E1–E23, see DESIGN.md §3 and EXPERIMENTS.md) sweeps the
// relevant parameter, runs many simulated executions per cell on the
// parallel trial engine, and prints a table comparing measurements against
// the corresponding theorem.
//
// # Experiments and shared sweep knobs
//
//	modcon-bench                 # run every sim experiment at default scale
//	modcon-bench -run E1,E6      # run selected experiments
//	modcon-bench -backend live   # run the live-backend set (E18 validation,
//	                             # E19 wall-clock, E20 faults) instead of
//	                             # the sim set
//	modcon-bench -trials 50      # shrink/grow per-cell trial counts
//	modcon-bench -workers 8      # cap concurrent trials (0 = GOMAXPROCS)
//	modcon-bench -seed 1         # root seed (per-trial seeds derive from it)
//	modcon-bench -timeout 2m     # wall-clock budget for the whole run
//	modcon-bench -fail-fast      # stop a fault sweep at its first safety
//	                             # violation instead of finishing the cell
//	modcon-bench -registers regular  # run every consensus sweep on regular
//	                             # (or interposed, sim-only) registers
//	                             # instead of atomic
//	modcon-bench -progress 2s    # stream progress lines to stderr (trials
//	                             # done, trials/sec, ETA, violations)
//	modcon-bench -markdown       # emit EXPERIMENTS.md-ready markdown
//	modcon-bench -json           # emit a manifest + tables JSON object
//	modcon-bench -list           # list experiments
//
// # Benchmarks and profiling
//
//	modcon-bench -bench-core     # microbenchmark the step engine itself,
//	                             # writing BENCH_sim.json (see -bench-out,
//	                             # -bench-budget, -bench-n)
//	modcon-bench -bench-scaling  # sweep worker counts 1,2,4,…,NumCPU over a
//	                             # fixed consensus sweep on pooled sessions,
//	                             # recording the scaling curve (wall time,
//	                             # speedup, aggregate digests) into the same
//	                             # artifact (see -scaling-trials; combinable
//	                             # with -bench-core)
//	modcon-bench -cpuprofile p   # write a CPU profile of the run
//	modcon-bench -memprofile p   # write a heap profile at exit
//	modcon-bench -trace p        # write a runtime execution trace
//
// # Sharded fan-out
//
//	modcon-bench -shards 4       # split the consensus sweep's seed space over
//	                             # 4 shard subprocesses and print the merged
//	                             # artifact — byte-identical outside the
//	                             # manifest to -shards 1 at any shard count
//	modcon-bench -shard-run 2/4  # run shard 2 of 4 by hand (artifact on
//	                             # stdout; spread shards across machines and
//	                             # reassemble with -merge-shards)
//	modcon-bench -merge-shards a.json,b.json  # merge saved shard artifacts
//
// # Adversary search
//
//	modcon-bench -search         # search the parametric scheduler family for
//	                             # a worst-case adversary and print a JSON
//	                             # artifact with full provenance (see
//	                             # -search-power, -search-algo,
//	                             # -search-objective, -search-budget,
//	                             # -search-trials)
//	modcon-bench -search-replay 'adv:…'  # re-evaluate a found adversary
//	                             # config; bit-identical at any -workers
//
// # Workloads and trace replay
//
//	modcon-bench -workload 'poisson:rate=2000;serve:servers=4'
//	                             # run the consensus sweep as the jobs of a
//	                             # declarative arrival process and print its
//	                             # shard report with the executed workload as
//	                             # an inline tracev1 recording and the
//	                             # saturation metrics served from it in
//	                             # virtual time (offered vs achieved rate,
//	                             # latency percentiles); combinable with
//	                             # -shards and -shard-run (slice traces merge
//	                             # exactly)
//	modcon-bench -workload ... -trace-out run.trace  # also save the recording
//	modcon-bench -trace-in run.trace                 # replay a recording and
//	                             # verify per-trial work is bit-identical;
//	                             # accepts comma-separated slice files, merged
//	                             # before replay
//
// Results are deterministic in (-seed, -trials) and independent of
// -workers: trial seeds are derived per-trial and results are merged in
// trial order. JSON artifacts carry a run manifest (seed, config echo,
// backend, toolchain) so each is reproducible from the artifact alone.
//
// The exit status is nonzero when any experiment reports a safety
// violation, so CI can gate on it directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"github.com/modular-consensus/modcon/internal/exp"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "modcon-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("modcon-bench", flag.ContinueOnError)
	var (
		runList  = fs.String("run", "", "comma-separated experiment ids (default: all for the selected backend)")
		backend  = fs.String("backend", "sim", "experiment set to run: sim (deterministic simulator) or live (goroutine backend)")
		trials   = fs.Int("trials", 0, "per-cell trials (0 = experiment default)")
		seed     = fs.Uint64("seed", 1, "root seed (per-trial seeds are derived from it)")
		workers  = fs.Int("workers", 0, "concurrent trials per cell (0 = GOMAXPROCS; results identical at any value)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget; in-flight executions are cancelled when it expires (0 = none)")
		failFast = fs.Bool("fail-fast", false, "stop fault sweeps (E20) at the first safety violation")
		regModel = fs.String("registers", "atomic", "register consistency model for every consensus sweep, including the -shards/-shard-run workload and the -bench-core/-bench-scaling cells: atomic, regular, or interposed (sim-only); E21 sweeps the models itself and ignores this")
		progress = fs.Duration("progress", 0, "stream progress snapshots to stderr at this interval (0 = off)")
		markdown = fs.Bool("markdown", false, "emit markdown instead of aligned text")
		jsonOut  = fs.Bool("json", false, "emit a JSON object with a run manifest and the completed tables")
		list     = fs.Bool("list", false, "list experiments and exit")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile  = fs.String("trace", "", "write a runtime execution trace of the run to this file")

		benchCore      = fs.Bool("bench-core", false, "microbenchmark the step engine and write a JSON perf baseline")
		benchScaling   = fs.Bool("bench-scaling", false, "sweep worker counts 1,2,4,…,NumCPU over a fixed consensus sweep and record the scaling curve (combinable with -bench-core; same output file)")
		benchOut       = fs.String("bench-out", "BENCH_sim.json", "output path for -bench-core / -bench-scaling")
		benchBudget    = fs.Duration("bench-budget", time.Second, "time budget per -bench-core cell")
		benchN         = fs.String("bench-n", "2,16,256", "comma-separated process counts for -bench-core")
		scalingTrials  = fs.Int("scaling-trials", 2000, "trials per worker count for -bench-scaling")
		scalingWorkers = fs.String("scaling-workers", "", "comma-separated worker counts for -bench-scaling (default: 1,2,4,… up to NumCPU)")

		shards      = fs.Int("shards", 0, "fan the consensus sweep out over this many shard subprocesses and print the merged artifact (-trials is the full seed space; 0 = off)")
		shardRun    = fs.String("shard-run", "", "run one shard i/M of the consensus sweep and print its artifact (used by -shards; usable by hand across machines)")
		mergeShards = fs.String("merge-shards", "", "comma-separated shard artifact files to merge into one normalized report")

		workloadSpec = fs.String("workload", "", "run the consensus sweep as the jobs of this workload spec (e.g. 'poisson:rate=2000;serve:servers=4') and print a report with the executed tracev1 recording and its saturation metrics; combinable with -shards and -shard-run")
		traceOut     = fs.String("trace-out", "", "write the recorded workload trace (tracev1 text) to this file")
		traceIn      = fs.String("trace-in", "", "replay these comma-separated workload trace files (merged when slices) and verify per-trial work against the recording")

		search          = fs.Bool("search", false, "search the parametric scheduler family for a worst-case adversary and print a JSON artifact (see the -search-* flags)")
		searchPower     = fs.String("search-power", "value-oblivious", "adversary power class to search: oblivious, value-oblivious, location-oblivious, or adaptive")
		searchAlgo      = fs.String("search-algo", "evolve", "search algorithm: random, evolve, or halving")
		searchObjective = fs.String("search-objective", "work", "search objective: work (mean total work) or violations (safety-violation rate)")
		searchBudget    = fs.Int("search-budget", 0, "total trial budget for the search (0 = 96 evaluations' worth of -search-trials)")
		searchTrials    = fs.Int("search-trials", 48, "trials per candidate evaluation")
		searchReplay    = fs.String("search-replay", "", "re-evaluate this parametric scheduler config instead of searching (bit-identical at any -workers)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A count of 0 picks the default its flag names; no mode can honour a
	// negative count, and -bench-scaling divides by its trial count.
	for _, c := range []struct {
		flag     string
		got, min int
	}{
		{"trials", *trials, 0},
		{"workers", *workers, 0},
		{"scaling-trials", *scalingTrials, 1},
		{"search-budget", *searchBudget, 0},
		{"search-trials", *searchTrials, 0},
	} {
		if c.got < c.min {
			return fmt.Errorf("-%s: want ≥ %d, got %d", c.flag, c.min, c.got)
		}
	}
	// Every mode below — experiments, shard fan-out, bench baselines —
	// honors -registers, parsed once so the manifests all attribute the
	// same effective model.
	registers, err := register.ParseSemantics(*regModel)
	if err != nil {
		return fmt.Errorf("-registers: %w", err)
	}

	// Profiling wraps whichever mode runs — the experiment loop or the
	// bench-core matrix — so hot-path investigations use the same flags
	// either way.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *shardRun != "" || *shards != 0 || *mergeShards != "" || *workloadSpec != "" || *traceIn != "" || *traceOut != "" {
		// The seed-space modes share the sweep knobs: -trials is the FULL
		// seed space (0 picks the -scaling-trials default so a bare
		// `-shards 4` works), -seed the shared root, -workers each
		// process's concurrency cap.
		total := *trials
		if total == 0 {
			total = *scalingTrials
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		return runSweepMode(sweepFlags{
			ShardRun:    *shardRun,
			Shards:      *shards,
			MergeShards: *mergeShards,
			Workload:    *workloadSpec,
			TraceIn:     *traceIn,
			TraceOut:    *traceOut,
			Trials:      total,
			Seed:        *seed,
			Workers:     *workers,
			Registers:   registers,
			Set:         set,
		})
	}

	if *search || *searchReplay != "" {
		return runSearch(searchFlags{
			Power:     *searchPower,
			Algo:      *searchAlgo,
			Objective: *searchObjective,
			Budget:    *searchBudget,
			Trials:    *searchTrials,
			Replay:    *searchReplay,
			Seed:      *seed,
			Workers:   *workers,
		}, registers)
	}

	if *benchCore || *benchScaling {
		ns, err := parseBenchNs("bench-n", *benchN)
		if err != nil {
			return err
		}
		var sw []int
		if *scalingWorkers != "" {
			if sw, err = parseBenchNs("scaling-workers", *scalingWorkers); err != nil {
				return err
			}
		}
		return runBench(benchOpts{
			Out:            *benchOut,
			Core:           *benchCore,
			Scaling:        *benchScaling,
			Budget:         *benchBudget,
			Ns:             ns,
			ScalingTrials:  *scalingTrials,
			ScalingWorkers: sw,
			Seed:           *seed,
			Registers:      registers,
		})
	}

	if *list {
		for _, e := range exp.All() {
			be := "sim"
			if e.Live {
				be = "live"
			}
			fmt.Printf("%-4s [%s] %s\n", e.ID, be, e.Title)
		}
		return nil
	}

	// -run selects freely across backends; without it, -backend picks the
	// default set (sim experiments are deterministic in the seed, live ones
	// only in their safety verdicts).
	var selected []exp.Experiment
	if *runList == "" {
		switch *backend {
		case "sim":
			selected = exp.ByBackend(false)
		case "live":
			selected = exp.ByBackend(true)
		default:
			return fmt.Errorf("unknown backend %q (sim or live)", *backend)
		}
	} else {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := exp.Config{Trials: *trials, Seed: *seed, Workers: *workers, Ctx: ctx, FailFast: *failFast, Registers: registers}
	if *progress > 0 {
		cfg.Reporter = obs.NewReporter(obs.Text(os.Stderr), *progress)
		cfg.Meter = &obs.Meter{}
	}

	// The manifest echoes every effective flag so a JSON artifact is
	// reproducible (and attributable) from the artifact alone.
	manifest := obs.NewManifest("modcon-bench")
	manifest.Seed = *seed
	manifest.Backend = *backend
	manifest.Registers = registers.String()
	manifest.Config = map[string]string{
		"run":       *runList,
		"backend":   *backend,
		"trials":    fmt.Sprint(*trials),
		"seed":      fmt.Sprint(*seed),
		"workers":   fmt.Sprint(*workers),
		"timeout":   timeout.String(),
		"fail-fast": fmt.Sprint(*failFast),
		"registers": registers.String(),
	}

	var tables []*exp.Table
	for i, e := range selected {
		start := time.Now()
		table, err := runExperiment(ctx, e, cfg)
		if err != nil {
			// The budget expired: report what completed, then the error.
			if *jsonOut {
				if jerr := emitJSON(manifest, tables); jerr != nil {
					return jerr
				}
			}
			return err
		}
		tables = append(tables, table)
		if *jsonOut {
			continue
		}
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(table)
			fmt.Printf("(%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if *jsonOut {
		if err := emitJSON(manifest, tables); err != nil {
			return err
		}
	}
	// A safety violation is a bug, never bad luck: exit nonzero so CI and
	// scripts fail without having to parse the tables.
	violations := 0
	for _, t := range tables {
		violations += t.Violations
	}
	if violations > 0 {
		return fmt.Errorf("%d safety violation(s) observed — see the table notes above", violations)
	}
	return nil
}

// runExperiment executes one experiment, converting the trial engine's
// cancellation panic (see exp.Config.Ctx) back into an error so a -timeout
// expiry exits cleanly instead of crashing.
func runExperiment(ctx context.Context, e exp.Experiment, cfg exp.Config) (table *exp.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ctx.Err() != nil {
				err = fmt.Errorf("%s cancelled: %w", e.ID, context.Cause(ctx))
				return
			}
			panic(r)
		}
	}()
	return e.Run(cfg), nil
}

// jsonReport is the -json output schema: a run manifest followed by the
// completed tables.
type jsonReport struct {
	Manifest obs.Manifest `json:"manifest"`
	Tables   []*exp.Table `json:"tables"`
}

func emitJSON(manifest obs.Manifest, tables []*exp.Table) error {
	if tables == nil {
		tables = []*exp.Table{} // always an array, even when nothing completed
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Manifest: manifest, Tables: tables})
}

// startProfiles begins the CPU profile and execution trace (if requested)
// and returns a stop function that ends them and writes the heap profile.
// The stop function is safe to call exactly once, including after a partial
// failure mid-run.
func startProfiles(cpu, mem, traceOut string) (func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			stop()
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, fmt.Errorf("trace: %w", err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "modcon-bench: memprofile:", err)
				return
			}
			defer f.Close()
			// The allocs profile is as of the last completed GC; collect
			// once so it includes the allocations made since.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "modcon-bench: memprofile:", err)
			}
		})
	}
	return stop, nil
}
