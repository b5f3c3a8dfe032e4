package exp

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/stats"
)

// E15Ablations isolates the paper's individual design choices: write-success
// detection (footnote 2), the doubling impatience schedule (vs constant and
// linear), the fast path (§4.1.1), and pool vs bit-vector quorums (§6.2).
func E15Ablations(cfg Config) *Table {
	t := &Table{
		ID:         "E15",
		Title:      "Ablations of the paper's design choices",
		PaperClaim: "footnote 2 (detection saves ≤2 ops); §5.2 (doubling impatience); §4.1.1 (fast path); §6.2 (quorum schemes)",
		Columns:    []string{"ablation", "variant", "mean individual", "mean total", "δ̂ / notes"},
	}
	trials := cfg.trials(250)
	n := 64

	// 1. Impatience growth schedule, conciliator alone under attack.
	// Each variant is a cell of its own, swept once.
	for _, g := range []conciliator.Growth{conciliator.GrowthDoubling, conciliator.GrowthLinear, conciliator.GrowthConstant} {
		func() {
			pool := conciliatorPool(n, g, false)
			defer pool.Close()
			var agree stats.Tally
			tot, ind := conciliatorSweep(cfg.sweep(trials), pool,
				func() sched.Scheduler { return sched.NewFirstMoverAttack() }, agree.Add)
			t.AddRow("impatience growth", g.String(),
				fmt.Sprintf("%.1f", ind.Mean()),
				fmt.Sprintf("%.0f", tot.Mean()),
				fmt.Sprintf("δ̂=%s", agree.Proportion().String()))
		}()
	}

	// 2. Write-success detection, conciliator alone under round-robin.
	for _, detect := range []bool{false, true} {
		func() {
			pool := conciliatorPool(n, conciliator.GrowthDoubling, detect)
			defer pool.Close()
			tot, ind := conciliatorSweep(cfg.sweep(trials), pool,
				func() sched.Scheduler { return sched.NewRoundRobin() }, nil)
			t.AddRow("write detection", fmt.Sprintf("detect=%v", detect),
				fmt.Sprintf("%.1f", ind.Mean()),
				fmt.Sprintf("%.0f", tot.Mean()),
				"footnote 2: ≤2 ops saved")
		}()
	}

	// 3. Fast path on agreeing inputs, full protocol.
	for _, fp := range []bool{true, false} {
		spec := cfg.spec(n, 2)
		spec.FastPath = fp
		spec.inputs = newInputTable(n, 1) // all zeros
		tot, ind := spec.sweepOnce(cfg.sweep(trials/2),
			func() sched.Scheduler { return sched.NewUniformRandom() }, nil)
		t.AddRow("fast path (unanimous inputs)", fmt.Sprintf("fastpath=%v", fp),
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%.0f", tot.Mean()),
			"")
	}

	// 4. Probabilistic vs deterministic first-mover writes under the
	// adaptive spoiler (the §2.1 motivation for the model).
	for _, naive := range []bool{false, true} {
		name := "probabilistic (impatient)"
		if naive {
			name = "deterministic (naive)"
		}
		var agree stats.Tally
		s := cfg.sweep(trials)
		s.StepsHist = &obs.Hist{}
		mustSweep(harness.SweepObject(s,
			objectCell(8, newInputTable(8, 8),
				func() sched.Scheduler { return sched.NewAdaptiveSpoiler() },
				func(file *register.File) core.Object {
					if naive {
						return conciliator.NewNaiveFirstMover(file, 1)
					}
					return conciliator.NewImpatient(file, n, 1)
				}),
			func(_ harness.Trial, run *harness.ObjectRun) {
				agree.Add(check.Unanimous(run.Outputs()))
			}))
		t.AddRow("write model (adaptive spoiler)", name,
			"-",
			fmt.Sprintf("%.0f", s.StepsHist.Mean()),
			fmt.Sprintf("δ̂=%s", agree.Proportion().String()))
	}

	// 5. Quorum scheme, m-valued consensus.
	m := 256
	for _, bv := range []bool{false, true} {
		name := "pool"
		if bv {
			name = "bitvector"
		}
		spec := cfg.spec(n, m)
		if bv {
			spec.Scheme = recipe.SchemeBitVector
		}
		tot, ind := spec.sweepOnce(cfg.sweep(trials/2),
			func() sched.Scheduler { return sched.NewUniformRandom() }, nil)
		t.AddRow(fmt.Sprintf("quorum scheme (m=%d)", m), name,
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%.0f", tot.Mean()),
			"")
	}
	return t
}
