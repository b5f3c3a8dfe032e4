package exp

import (
	"context"
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/multi"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/setagree"
	"github.com/modular-consensus/modcon/internal/value"
)

// E16SetAgreement exercises the k-set agreement extension built on the
// consensus stack (the paper's discussion points at randomized set
// agreement as the adjacent problem): at most k distinct outputs under
// every adversary, with per-process work tracking consensus at group size
// n/k.
func E16SetAgreement(cfg Config) *Table {
	t := &Table{
		ID:         "E16",
		Title:      "k-set agreement via per-group consensus (extension)",
		PaperClaim: "extension (paper §7 cites randomized set agreement): ≤ k distinct outputs; per-process cost = consensus cost at group size ⌈n/k⌉",
		Columns:    []string{"n", "k", "adversary", "max distinct outputs", "mean distinct", "mean individual work"},
	}
	trials := cfg.trials(150)
	n, m := 12, 12
	in := newInputTable(n, m)
	for _, k := range []int{1, 2, 3, 4, 6} {
		// The cells of one k differ only in their adversary, so they share
		// one session pool.
		func() {
			pool := harness.NewObjectPool(objectCell(n, in, nil, func(file *register.File) core.Object {
				p, err := setagree.New(file, n, m, k)
				if err != nil {
					panic(fmt.Sprintf("exp: bad set-agreement spec: %v", err))
				}
				return core.Func{Name: "setagree", F: func(e core.Env, v value.Value) value.Decision {
					return value.Decide(p.Run(e, v))
				}}
			}))
			defer pool.Close()
			for _, adv := range adversaryPortfolio() {
				if adv.Name == "lockstep" || adv.Name == "eager-write-attack" {
					continue
				}
				var distinct obs.Hist
				s := cfg.sweep(trials)
				s.WorkHist = &obs.Hist{}
				mustSweep(pool.Sweep(s, adv.New, func(_ harness.Trial, run *harness.ObjectRun) {
					seen := make(map[value.Value]bool)
					for _, v := range run.Outputs() {
						seen[v] = true
					}
					distinct.AddInt(len(seen))
				}))
				verdict := fmt.Sprintf("%d", distinct.Max())
				if distinct.Max() > int64(k) {
					verdict += " VIOLATION"
				}
				t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", k), adv.Name,
					verdict,
					fmt.Sprintf("%.2f", distinct.Mean()),
					fmt.Sprintf("%.1f", s.WorkHist.Mean()))
			}
		}()
	}
	t.AddNote("with all-distinct inputs each group keeps one value, so mean distinct = k exactly; the safety property is the max column never exceeding k")
	return t
}

// E17Sequences measures multi-slot consensus sequences (the replicated-log
// workload): amortized per-slot cost inside one adversarial execution.
func E17Sequences(cfg Config) *Table {
	t := &Table{
		ID:         "E17",
		Title:      "Multi-slot consensus sequences (replicated log, extension)",
		PaperClaim: "extension (workload from the paper's motivation): per-slot cost stays at single-shot consensus cost when slots run back to back under one adversary",
		Columns:    []string{"slots", "n", "adversary", "mean total work", "work per slot", "slots decided"},
	}
	trials := cfg.trials(60)
	n, m := 8, 4
	in := newInputTable(n, m)
	type seqResult struct{ work, decided int }
	for _, slots := range []int{1, 4, 16} {
		for _, adv := range adversaryPortfolio() {
			if adv.Name != "uniform-random" && adv.Name != "first-mover-attack" {
				continue
			}
			var works obs.Hist
			decided := 0
			mustSweep(harness.RunTrials(cfg.sweep(trials),
				func(ctx context.Context, tr harness.Trial) (seqResult, error) {
					proposals := make([][]value.Value, slots)
					for s := range proposals {
						proposals[s] = in.row(s + tr.Index)
					}
					res, err := multi.Run(multi.Config{
						ObjectConfig: harness.ObjectConfig{
							N: n, Scheduler: adv.New(), Seed: tr.Seed, Context: ctx,
							Meter: cfg.Meter,
						},
						M: m, Proposals: proposals,
					})
					if err != nil {
						return seqResult{}, err
					}
					r := seqResult{work: res.TotalWork}
					for _, v := range res.Agreed {
						if !v.IsNone() {
							r.decided++
						}
					}
					return r, nil
				},
				func(_ harness.Trial, r seqResult) {
					works.AddInt(r.work)
					decided += r.decided
				}))
			t.AddRow(fmt.Sprintf("%d", slots), fmt.Sprintf("%d", n), adv.Name,
				fmt.Sprintf("%.0f ± %.0f", works.Mean(), works.SE()),
				fmt.Sprintf("%.1f", works.Mean()/float64(slots)),
				fmt.Sprintf("%d/%d", decided, trials*slots))
		}
	}
	t.AddNote("per-slot work stays at or below the single-shot cost: accumulated skew spreads processes across slots, so later slots hit the fast path more often")
	return t
}
