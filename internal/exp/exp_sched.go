package exp

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/sharedcoin"
	"github.com/modular-consensus/modcon/internal/stats"
	"github.com/modular-consensus/modcon/internal/value"
)

// coinObject adapts a bare shared coin to the deciding-object interface so
// the harness can execute it (inputs are ignored; the output is the flip).
type coinObject struct{ coin sharedcoin.Coin }

func (c coinObject) Invoke(e core.Env, _ value.Value) value.Decision {
	return value.Continue(c.coin.Flip(e))
}

func (c coinObject) Label() string { return c.coin.Label() }

// E10CoinConciliator validates Theorem 6: wrapping a weak shared coin gives
// a conciliator whose agreement probability tracks the coin's, at +2
// registers and +2 operations.
func E10CoinConciliator(cfg Config) *Table {
	t := &Table{
		ID:         "E10",
		Title:      "CoinConciliator over the voting shared coin",
		PaperClaim: "Theorem 6: a shared coin with agreement probability δ yields a conciliator with agreement ≥ δ; the wrapper adds 2 registers and 2 operations",
		Columns:    []string{"n", "coin δ̂ (each side ≥)", "conciliator δ̂ (mixed inputs)", "wrapper ops/process"},
	}
	trials := cfg.trials(250)
	uniform := func() sched.Scheduler { return sched.NewUniformRandom() }
	for _, n := range []int{2, 4, 8} {
		all0, all1 := 0, 0
		mustSweep(harness.SweepObject(cfg.sweep(trials),
			objectCell(n, newInputTable(n, 1), uniform, func(file *register.File) core.Object {
				return coinObject{sharedcoin.NewVoting(file, n, 1)}
			}),
			func(_ harness.Trial, run *harness.ObjectRun) {
				outs := run.Outputs()
				if check.Unanimous(outs) {
					if outs[0] == 0 {
						all0++
					} else {
						all1++
					}
				}
			}))
		minSide := all0
		if all1 < minSide {
			minSide = all1
		}

		var wrapped stats.Tally
		mustSweep(harness.SweepObject(cfg.sweep(trials),
			objectCell(n, newInputTable(n, 2), uniform, func(file *register.File) core.Object {
				return conciliator.NewFromCoin(file, sharedcoin.NewVoting(file, n, 1), 1)
			}),
			func(_ harness.Trial, run *harness.ObjectRun) {
				wrapped.Add(check.Unanimous(run.Outputs()))
			}))
		t.AddRow(fmt.Sprintf("%d", n),
			stats.NewProportion(minSide, trials).String(),
			wrapped.Proportion().String(),
			"2")
	}
	t.AddNote("coin δ̂ reports the rarer side (the weak-shared-coin definition bounds both sides)")
	t.AddNote("mixed-input conciliator agreement can exceed the bare coin's: first movers bypass the coin entirely")
	return t
}

// E11NoisyRatifierOnly runs the ratifier-only protocol R under noisy
// scheduling (§4.2): cumulative timing jitter eventually pushes one process
// far enough ahead to clear a ratifier alone.
func E11NoisyRatifierOnly(cfg Config) *Table {
	t := &Table{
		ID:         "E11",
		Title:      "Ratifier-only protocol R under the noisy scheduler",
		PaperClaim: "§4.2: with a noisy scheduler, R terminates in O(log n) individual work (binary case, per the lean-consensus analysis)",
		Columns:    []string{"n", "m", "σ", "terminated", "mean individual work", "mean deciding stage"},
	}
	trials := cfg.trials(120)
	var ns, ys []float64
	type cell struct {
		n, m  int
		sigma float64
	}
	var cells []cell
	for _, n := range []int{2, 4, 8, 16, 32} {
		for _, sigma := range []float64{0.2, 0.5} {
			cells = append(cells, cell{n, 2, sigma})
		}
	}
	// §4.2 conjectures "comparable results ... for m-valued consensus";
	// confirm it with the Θ(log m)-work pool ratifier at m=4.
	for _, n := range []int{4, 16} {
		cells = append(cells, cell{n, 4, 0.5})
	}
	for _, c := range cells {
		n, m, sigma := c.n, c.m, c.sigma
		done, stages := 0, 0
		var indSum, stageSum float64
		spec := cfg.spec(n, m)
		spec.Conciliator = recipe.ConciliatorNone
		spec.FastPath = false
		spec.Stages = 4096
		// A trial that hits the step limit is left out, not an error: R
		// has no termination guarantee without enough noise.
		budgetSweep(cfg.sweep(trials),
			spec.cell(nil, func() sched.Scheduler { return sched.NewNoisy(sigma) }, 4_000_000),
			func(_ harness.Trial, run *harness.ProtocolRun, limited bool) {
				if limited {
					return
				}
				allDone := true
				for pid := 0; pid < n; pid++ {
					st, _ := run.DecidedStage(pid)
					if st < 0 {
						allDone = false
						continue
					}
					stageSum += float64(st)
					stages++
				}
				if allDone {
					done++
					indSum += float64(run.Result.MaxIndividualWork())
				}
			})
		meanInd, meanStage := 0.0, 0.0
		if done > 0 {
			meanInd = indSum / float64(done)
		}
		if stages > 0 {
			meanStage = stageSum / float64(stages)
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", m), fmt.Sprintf("%.1f", sigma),
			fmt.Sprintf("%d/%d", done, trials),
			fmt.Sprintf("%.1f", meanInd), fmt.Sprintf("%.1f", meanStage))
		if sigma == 0.5 && m == 2 {
			ns = append(ns, float64(n))
			ys = append(ys, meanInd)
		}
	}
	t.AddNote("individual work at σ=0.5: %s", stats.BestShape(ns, ys, stats.ShapeConst, stats.ShapeLog, stats.ShapeLinear))
	return t
}

// E12PriorityRatifierOnly runs R under strict priority scheduling (§4.2):
// the top-priority process races through a ratifier alone and decides.
func E12PriorityRatifierOnly(cfg Config) *Table {
	t := &Table{
		ID:         "E12",
		Title:      "Ratifier-only protocol R under priority scheduling",
		PaperClaim: "§4.2: under priority-based scheduling the highest-priority process overtakes all others and R solves consensus ([27] achieves 6 ops with 2 registers; R pays a constant factor for generality)",
		Columns:    []string{"n", "terminated", "max individual work", "top-priority work", "[27] bound"},
	}
	trials := cfg.trials(60)
	for _, n := range []int{2, 4, 8, 16, 32} {
		done, topWork := 0, 0
		spec := cfg.spec(n, 2)
		spec.Conciliator = recipe.ConciliatorNone
		spec.FastPath = false
		spec.Stages = 64
		_, ind := spec.sweepOnce(cfg.sweep(trials),
			func() sched.Scheduler { return sched.NewPriority(nil) },
			func(_ harness.Trial, run *harness.ProtocolRun) {
				all := true
				for pid := 0; pid < n; pid++ {
					if !run.Decided[pid] {
						all = false
					}
				}
				if all {
					done++
				}
				if run.Result.Work[0] > topWork {
					topWork = run.Result.Work[0]
				}
			})
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d/%d", done, trials),
			fmt.Sprintf("%d", ind.Max()), fmt.Sprintf("%d", topWork), "6")
	}
	t.AddNote("the top-priority process completes R1 solo: 4 ops (binary ratifier), then decides")
	return t
}
