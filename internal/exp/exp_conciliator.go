package exp

import (
	"fmt"
	"math"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/stats"
)

// thm7Delta is the paper's lower bound on the impatient conciliator's
// agreement probability: (1 - e^{-1/4})/4.
var thm7Delta = (1 - math.Exp(-0.25)) / 4

// conciliatorPool opens the session pool of an impatient conciliator over
// n processes with mixed inputs, which every adversary of one n sweeps.
// Its opener closes it when the last of those sweeps returns.
func conciliatorPool(n int, growth conciliator.Growth, detect bool) *harness.ObjectPool {
	return harness.NewObjectPool(objectCell(n, newInputTable(n, n), nil, func(file *register.File) core.Object {
		c := conciliator.NewImpatient(file, n, 1)
		c.Growth = growth
		c.DetectSuccess = detect
		return c
	}))
}

// conciliatorSweep runs impatient-conciliator executions on pool's
// sessions, under schedulers built by mk, on the parallel trial engine and
// returns the sweep's histograms of total and maximum individual work.
// fold, which may be nil, receives each trial's agreement flag in trial
// order.
func conciliatorSweep(s harness.Sweep, pool *harness.ObjectPool, mk func() sched.Scheduler,
	fold func(agreed bool)) (steps, work *obs.Hist) {
	s.StepsHist, s.WorkHist = &obs.Hist{}, &obs.Hist{}
	mustSweep(pool.Sweep(s, mk, func(_ harness.Trial, run *harness.ObjectRun) {
		if fold != nil {
			fold(check.Unanimous(run.Outputs()))
		}
	}))
	return s.StepsHist, s.WorkHist
}

// E1ConciliatorAgreement estimates the impatient conciliator's agreement
// probability per adversary and n, against Theorem 7's δ ≈ 0.0553.
func E1ConciliatorAgreement(cfg Config) *Table {
	t := &Table{
		ID:         "E1",
		Title:      "Impatient conciliator agreement probability",
		PaperClaim: fmt.Sprintf("Theorem 7: agreement probability ≥ (1-e^{-1/4})/4 ≈ %.4f for any location-oblivious adversary", thm7Delta),
		Columns:    []string{"n", "adversary", "δ̂ (95% CI)", "≥ paper bound?"},
	}
	trials := cfg.trials(400)
	minDelta := 1.0
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		func() {
			pool := conciliatorPool(n, conciliator.GrowthDoubling, false)
			defer pool.Close()
			for _, adv := range adversaryPortfolio() {
				var agree stats.Tally
				conciliatorSweep(cfg.sweep(trials), pool, adv.New, agree.Add)
				p := agree.Proportion()
				verdict := "yes"
				if p.P < thm7Delta {
					verdict = "NO"
				}
				if p.P < minDelta {
					minDelta = p.P
				}
				t.AddRow(fmt.Sprintf("%d", n), adv.Name, p.String(), verdict)
			}
		}()
	}
	t.AddNote("minimum empirical δ over the portfolio: %.4f (paper lower bound %.4f)", minDelta, thm7Delta)
	return t
}

// E2ConciliatorTotalWork measures expected total work against the 6n bound,
// with per-cell work distributions (the tail, not just the mean).
func E2ConciliatorTotalWork(cfg Config) *Table {
	t := &Table{
		ID:         "E2",
		Title:      "Impatient conciliator expected total work",
		PaperClaim: "Theorem 7: termination in expected 6n total work",
		Columns:    []string{"n", "adversary", "mean total work", "p50/p90/p99", "6n", "ratio"},
	}
	trials := cfg.trials(300)
	var ns, ys []float64
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		func() {
			pool := conciliatorPool(n, conciliator.GrowthDoubling, false)
			defer pool.Close()
			for _, adv := range adversaryPortfolio() {
				works, _ := conciliatorSweep(cfg.sweep(trials), pool, adv.New, nil)
				t.AddRow(fmt.Sprintf("%d", n), adv.Name,
					fmt.Sprintf("%.1f ± %.1f", works.Mean(), works.SE()),
					fmt.Sprintf("%d/%d/%d", works.P50(), works.P90(), works.P99()),
					fmt.Sprintf("%d", 6*n),
					fmt.Sprintf("%.2f", works.Mean()/float64(6*n)))
				if adv.Name == "first-mover-attack" {
					ns = append(ns, float64(n))
					ys = append(ys, works.Mean())
					t.AddDist(fmt.Sprintf("total work n=%d first-mover-attack", n), works)
				}
			}
		}()
	}
	fit := stats.BestShape(ns, ys, stats.ShapeLog, stats.ShapeLinear, stats.ShapeNLogN)
	t.AddNote("total work growth under attack: best fit %s", fit)
	return t
}

// E3ConciliatorIndividualWork measures the worst-case individual work
// against the 2 lg n + O(1) bound.
func E3ConciliatorIndividualWork(cfg Config) *Table {
	t := &Table{
		ID:         "E3",
		Title:      "Impatient conciliator individual work",
		PaperClaim: "Theorem 7: at most 2 lg n + O(1) individual work (deterministic bound)",
		Columns:    []string{"n", "max observed (all adversaries)", "mean observed", "p50/p90/p99", "2⌈lg n⌉+5", "within bound?"},
	}
	trials := cfg.trials(150)
	var ns, ys []float64
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		ind := &obs.Hist{}
		func() {
			pool := conciliatorPool(n, conciliator.GrowthDoubling, false)
			defer pool.Close()
			for _, adv := range adversaryPortfolio() {
				_, work := conciliatorSweep(cfg.sweep(trials), pool, adv.New, nil)
				ind.Merge(work)
			}
		}()
		maxObs := int(ind.Max())
		bound := 2*int(math.Ceil(math.Log2(float64(n)))) + 5
		verdict := "yes"
		if maxObs > bound {
			verdict = "NO"
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", maxObs),
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%d/%d/%d", ind.P50(), ind.P90(), ind.P99()),
			fmt.Sprintf("%d", bound), verdict)
		t.AddDist(fmt.Sprintf("individual work n=%d (all adversaries)", n), ind)
		ns = append(ns, float64(n))
		ys = append(ys, float64(maxObs))
	}
	fit := stats.BestShape(ns, ys, stats.ShapeConst, stats.ShapeLog, stats.ShapeLinear)
	t.AddNote("worst-case individual work growth: best fit %s", fit)
	return t
}

// E8BaselineComparison pits the impatient conciliator against the
// constant-rate Chor–Israeli–Li/Cheung baseline on solo executions, the
// regime that exposes the individual-work separation.
func E8BaselineComparison(cfg Config) *Table {
	t := &Table{
		ID:         "E8",
		Title:      "Individual work: impatient (2^k/n) vs constant-rate (1/n) first-mover conciliators",
		PaperClaim: "\"No previous protocol in this model uses sublinear individual work\": impatient is O(log n), constant-rate is Θ(n)",
		Columns:    []string{"n", "impatient mean ops", "constant-rate mean ops", "speedup"},
	}
	trials := cfg.trials(200)
	var ns, impY, constY []float64
	// Solo execution: the conciliator is built for n processes but only one
	// participates — the schedule an oblivious adversary produces by running
	// one process to completion first. Both variants sweep the same trials,
	// so they face identical random streams.
	solo := newInputTable(1, 1)
	soloWork := func(n int, build func(register.Allocator, int, int) *conciliator.Impatient) float64 {
		s := cfg.sweep(trials)
		s.StepsHist = &obs.Hist{}
		mustSweep(harness.SweepObject(s,
			objectCell(1, solo, func() sched.Scheduler { return sched.NewRoundRobin() },
				func(file *register.File) core.Object { return build(file, n, 1) }),
			nil))
		return s.StepsHist.Mean()
	}
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512} {
		mi, mc := soloWork(n, conciliator.NewImpatient), soloWork(n, conciliator.NewConstantRate)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", mi), fmt.Sprintf("%.1f", mc),
			fmt.Sprintf("%.1fx", mc/mi))
		ns = append(ns, float64(n))
		impY = append(impY, mi)
		constY = append(constY, mc)
	}
	t.AddNote("impatient growth: %s", stats.BestShape(ns, impY, stats.ShapeLog, stats.ShapeLinear))
	t.AddNote("constant-rate growth: %s", stats.BestShape(ns, constY, stats.ShapeLog, stats.ShapeLinear))
	return t
}
