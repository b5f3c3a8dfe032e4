package exp

// Live-backend experiments: the same objects and protocols, executed on
// internal/live (free-running goroutines over sync/atomic registers)
// instead of the simulator. E18 is the cross-backend validation pass: it
// pins that the two backends implement the *same* semantics where they
// must agree (adversary-free executions are bit-equivalent) and that
// safety holds on live where they legitimately differ (the Go scheduler
// picks the interleaving). E19 reports wall-clock costs, which only the
// live backend can measure meaningfully.

import (
	"fmt"
	"time"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/fallback"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/live"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/stats"
	"github.com/modular-consensus/modcon/internal/value"
)

// crossBackendCatalog lists one builder per public-catalog object family.
// Each builder allocates a fresh object in a fresh file (objects are
// one-shot and files are mutated by sim runs).
func crossBackendCatalog() []struct {
	Name  string
	Build func() (*register.File, core.Object)
	Input value.Value
} {
	type entry = struct {
		Name  string
		Build func() (*register.File, core.Object)
		Input value.Value
	}
	mk := func(name string, input value.Value, build func(f *register.File) core.Object) entry {
		return entry{Name: name, Input: input, Build: func() (*register.File, core.Object) {
			f := register.NewFile()
			return f, build(f)
		}}
	}
	return []entry{
		mk("impatient-conciliator", 1, func(f *register.File) core.Object { return conciliator.NewImpatient(f, 1, 1) }),
		mk("constant-rate-conciliator", 1, func(f *register.File) core.Object { return conciliator.NewConstantRate(f, 1, 1) }),
		mk("binary-ratifier", 1, func(f *register.File) core.Object { return ratifier.NewBinary(f, 1) }),
		mk("pool-ratifier-m16", 7, func(f *register.File) core.Object { return ratifier.NewPool(f, 16, 1) }),
		mk("bitvector-ratifier-m16", 7, func(f *register.File) core.Object { return ratifier.NewBitVector(f, 16, 1) }),
		mk("collect-ratifier", 1, func(f *register.File) core.Object { return ratifier.NewCollect(f, 1, 1) }),
		mk("cil-consensus", 1, func(f *register.File) core.Object { return fallback.New(f, 1, 1) }),
	}
}

// E18CrossBackend is the cross-backend validation pass.
//
// Part 1 — single-process equivalence. With one process there is no
// interleaving for the backends to disagree on, and both derive the
// process's coin and probabilistic-write streams the same way
// (exec.ProcCoins/ProcProb), so sim and live must produce bit-identical
// decisions and operation counts for every catalog object. Any deviation
// means one backend's Env prices or sequences operations differently — a
// semantics bug, not noise.
//
// Part 2 — live safety. With n > 1 outputs may differ run to run, but
// agreement and validity are safety properties: they must hold under
// *every* interleaving, including whatever the Go scheduler produces.
// Each execution is checked with check.Consensus, and the work accounting
// is audited with check.WorkAccounting.
func E18CrossBackend(cfg Config) *Table {
	t := &Table{
		ID:         "E18",
		Title:      "Cross-backend validation: sim vs live",
		PaperClaim: "§2/§3: deciding objects are defined against abstract shared memory, so their semantics cannot depend on the execution model",
		Columns:    []string{"check", "cell", "runs", "result"},
	}
	trials := cfg.trials(25)

	// Part 1: single-process bit-equivalence, every catalog object.
	for _, c := range crossBackendCatalog() {
		mismatches := 0
		ops := -1
		opsVary := false
		for i := 0; i < trials; i++ {
			seed := harness.TrialSeed(cfg.Seed, i)
			run := func(backendCfg harness.ObjectConfig) *harness.ObjectRun {
				file, obj := c.Build()
				backendCfg.N, backendCfg.File, backendCfg.Inputs = 1, file, []value.Value{c.Input}
				backendCfg.Seed = seed
				backendCfg.Context = cfg.Ctx
				r, err := harness.RunObject(obj, backendCfg)
				if err != nil {
					panic(fmt.Sprintf("exp: E18 %s: %v", c.Name, err))
				}
				return r
			}
			simRun := run(harness.ObjectConfig{Scheduler: sched.NewRoundRobin()})
			liveRun := run(harness.ObjectConfig{Backend: live.Backend()})
			if simRun.Decisions[0] != liveRun.Decisions[0] ||
				simRun.Result.Work[0] != liveRun.Result.Work[0] ||
				simRun.Result.TotalWork != liveRun.Result.TotalWork {
				mismatches++
			}
			if ops == -1 {
				ops = simRun.Result.TotalWork
			} else if ops != simRun.Result.TotalWork {
				opsVary = true
			}
		}
		opsCell := fmt.Sprintf("%d ops", ops)
		if opsVary {
			opsCell += " (varies by seed)"
		}
		verdict := "identical decisions+work"
		if mismatches > 0 {
			verdict = fmt.Sprintf("MISMATCH in %d/%d runs", mismatches, trials)
		}
		t.AddRow("1-process equivalence", c.Name+", "+opsCell, fmt.Sprintf("%d seeds", trials), verdict)
		if mismatches > 0 {
			t.AddNote("E18 FAILED: %s diverges between backends — backend semantics bug", c.Name)
		}
	}

	// Part 2: consensus safety on live across process counts and domains.
	for _, n := range []int{2, 8, 32} {
		for _, m := range []int{2, 4} {
			violations := 0
			var tot stats.Acc
			for i := 0; i < trials; i++ {
				spec := cfg.spec(n, m)
				spec.Fallback = true
				file, proto := spec.build()
				inputs := mixedInputs(n, m, i)
				run, err := harness.RunProtocol(proto, harness.ObjectConfig{
					N: n, File: file, Inputs: inputs,
					Backend:   live.Backend(),
					Seed:      harness.TrialSeed(cfg.Seed, i),
					Context:   cfg.Ctx,
					Registers: spec.registers,
				})
				if err != nil {
					panic(fmt.Sprintf("exp: E18 live consensus n=%d m=%d: %v", n, m, err))
				}
				if err := check.Consensus(inputs, run.DecidedOutputs()); err != nil {
					violations++
				}
				if err := check.WorkAccounting(run.Result.Work, run.Result.TotalWork); err != nil {
					violations++
				}
				tot.AddInt(run.Result.TotalWork)
			}
			verdict := "agreement+validity hold"
			if violations > 0 {
				verdict = fmt.Sprintf("%d SAFETY VIOLATIONS", violations)
				t.AddNote("E18 FAILED: live consensus n=%d m=%d violated safety", n, m)
			}
			t.AddRow("live consensus safety", fmt.Sprintf("n=%d m=%d, mean total %.0f ops", n, m, tot.Mean()),
				fmt.Sprintf("%d seeds", trials), verdict)
		}
	}
	t.AddNote("1-process runs must be bit-identical across backends (shared coin derivation); n>1 live runs are checked for safety, which no interleaving may break")
	return t
}

// E19LiveWallClock measures what only the live backend can: real elapsed
// time per consensus execution under genuine hardware concurrency. The
// numbers are machine-dependent (they are reported for shape, not pinned),
// unlike every sim-backed experiment; the operation counts alongside them
// remain exact.
func E19LiveWallClock(cfg Config) *Table {
	t := &Table{
		ID:         "E19",
		Title:      "Live-backend wall-clock binary consensus",
		PaperClaim: "(no paper claim — wall-clock sanity of the model-cost results; machine-dependent)",
		Columns:    []string{"n", "runs", "mean wall-clock", "mean total ops", "ops/n"},
	}
	trials := cfg.trials(30)
	for _, n := range []int{2, 8, 32} {
		var tot stats.Acc
		var elapsed time.Duration
		for i := 0; i < trials; i++ {
			spec := cfg.spec(n, 2)
			spec.Fallback = true
			file, proto := spec.build()
			inputs := mixedInputs(n, 2, i)
			start := time.Now()
			run, err := harness.RunProtocol(proto, harness.ObjectConfig{
				N: n, File: file, Inputs: inputs,
				Backend:   live.Backend(),
				Seed:      harness.TrialSeed(cfg.Seed, i),
				Context:   cfg.Ctx,
				Registers: spec.registers,
			})
			elapsed += time.Since(start)
			if err != nil {
				panic(fmt.Sprintf("exp: E19 n=%d: %v", n, err))
			}
			if err := check.Consensus(inputs, run.DecidedOutputs()); err != nil {
				panic(fmt.Sprintf("exp: E19 n=%d: %v", n, err))
			}
			tot.AddInt(run.Result.TotalWork)
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", trials),
			fmt.Sprint((elapsed / time.Duration(trials)).Round(time.Microsecond)),
			fmt.Sprintf("%.0f", tot.Mean()),
			fmt.Sprintf("%.1f", tot.Mean()/float64(n)))
	}
	t.AddNote("wall-clock is hardware- and load-dependent; op counts are exact (EXPERIMENTS.md records shapes only for this table)")
	return t
}
