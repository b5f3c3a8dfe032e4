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
	"github.com/modular-consensus/modcon/internal/stats"
	"github.com/modular-consensus/modcon/internal/value"
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
	for _, g := range []conciliator.Growth{conciliator.GrowthDoubling, conciliator.GrowthLinear, conciliator.GrowthConstant} {
		var agree stats.Tally
		var ind, tot stats.Acc
		conciliatorSweep(cfg.sweep(trials), n, g, false,
			func() sched.Scheduler { return sched.NewFirstMoverAttack() },
			func(ok bool, total, individual int) {
				agree.Add(ok)
				ind.AddInt(individual)
				tot.AddInt(total)
			})
		t.AddRow("impatience growth", g.String(),
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%.0f", tot.Mean()),
			fmt.Sprintf("δ̂=%s", agree.Proportion().String()))
	}

	// 2. Write-success detection, conciliator alone under round-robin.
	for _, detect := range []bool{false, true} {
		var ind, tot stats.Acc
		conciliatorSweep(cfg.sweep(trials), n, conciliator.GrowthDoubling, detect,
			func() sched.Scheduler { return sched.NewRoundRobin() },
			func(_ bool, total, individual int) {
				ind.AddInt(individual)
				tot.AddInt(total)
			})
		t.AddRow("write detection", fmt.Sprintf("detect=%v", detect),
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%.0f", tot.Mean()),
			"footnote 2: ≤2 ops saved")
	}

	// 3. Fast path on agreeing inputs, full protocol.
	for _, fp := range []bool{true, false} {
		var ind, tot stats.Acc
		spec := cfg.spec(n, 2)
		spec.FastPath = fp
		mustSweep(harness.SweepProtocol(cfg.sweep(trials/2),
			harness.ProtocolSweep{
				Build: func() (*core.Protocol, harness.ObjectConfig) {
					file, proto := spec.build()
					return proto, harness.ObjectConfig{
						N: n, File: file, Inputs: mixedInputs(n, 1, 0),
						Scheduler: sched.NewUniformRandom(),
						Registers: spec.registers,
					}
				},
			},
			func(_ harness.Trial, run *harness.ProtocolRun) {
				if err := check.Consensus(mixedInputs(n, 1, 0), run.DecidedOutputs()); err != nil {
					panic(err)
				}
				ind.AddInt(run.Result.MaxIndividualWork())
				tot.AddInt(run.Result.TotalWork)
			}))
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
		var tot stats.Acc
		mustSweep(harness.SweepObject(cfg.sweep(trials),
			harness.ObjectSweep{
				Build: func() (core.Object, harness.ObjectConfig) {
					file := register.NewFile()
					var obj core.Object
					if naive {
						obj = conciliator.NewNaiveFirstMover(file, 1)
					} else {
						obj = conciliator.NewImpatient(file, n, 1)
					}
					return obj, harness.ObjectConfig{
						N: 8, File: file, Inputs: mixedInputs(8, 8, 0),
						Scheduler: sched.NewAdaptiveSpoiler(),
					}
				},
				Inputs: func(tr harness.Trial) []value.Value { return mixedInputs(8, 8, tr.Index) },
			},
			func(_ harness.Trial, run *harness.ObjectRun) {
				agree.Add(check.Unanimous(run.Outputs()))
				tot.AddInt(run.Result.TotalWork)
			}))
		t.AddRow("write model (adaptive spoiler)", name,
			"-",
			fmt.Sprintf("%.0f", tot.Mean()),
			fmt.Sprintf("δ̂=%s", agree.Proportion().String()))
	}

	// 5. Quorum scheme, m-valued consensus.
	m := 256
	for _, bv := range []bool{false, true} {
		name := "pool"
		if bv {
			name = "bitvector"
		}
		var ind, tot stats.Acc
		spec := cfg.spec(n, m)
		if bv {
			spec.Scheme = recipe.SchemeBitVector
		}
		consensusSweep(cfg.sweep(trials/2), spec,
			func() sched.Scheduler { return sched.NewUniformRandom() }, 0,
			func(_ harness.Trial, run *harness.ProtocolRun) {
				ind.AddInt(run.Result.MaxIndividualWork())
				tot.AddInt(run.Result.TotalWork)
			})
		t.AddRow(fmt.Sprintf("quorum scheme (m=%d)", m), name,
			fmt.Sprintf("%.1f", ind.Mean()),
			fmt.Sprintf("%.0f", tot.Mean()),
			"")
	}
	return t
}
