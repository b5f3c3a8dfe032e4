package exp

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/live"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/stats"
)

// E21 cell size and step budget. The budget is a guard: a trial that
// exhausts it is reported in the termination fraction, not treated as an
// error. No sim trial reaches it at these sizes; every sim row, the
// adaptive spoiler's included, terminates all its trials under all three
// register models.
const (
	e21N        = 16
	e21MaxSteps = 200_000
)

// e21Agreement estimates the impatient conciliator's agreement probability
// and mean minority share under one register model, on the given backend
// (nil = sim with mk's scheduler; live cells pass mk == nil). Inputs are
// binary like the consensus cells. The minority share — the fraction of
// processes returning the less-common value — is the blunting-sensitive
// measure: a content-aware adversary fires precisely the conflicting pending
// writes and splits the outputs near-evenly, while the interposed mask
// reduces it to guessing and the split collapses toward unanimity even when
// strict agreement still fails.
func e21Agreement(s harness.Sweep, model register.Semantics, be exec.Backend, mk func() sched.Scheduler) (agree stats.Tally, minority float64) {
	var sum float64
	in := newInputTable(e21N, 2)
	mustSweep(harness.SweepObject(s,
		harness.ObjectSweep{
			Build: func() (core.Object, harness.ObjectConfig) {
				file := register.NewFile()
				c := conciliator.NewImpatient(file, e21N, 1)
				oc := harness.ObjectConfig{
					N: e21N, File: file, Inputs: in.row(0),
					Registers: model, Backend: be,
				}
				if mk != nil {
					oc.Scheduler = mk()
				}
				return c, oc
			},
			Inputs: in.of,
		},
		func(_ harness.Trial, run *harness.ObjectRun) {
			outs := run.Outputs()
			agree.Add(check.Unanimous(outs))
			ones := 0
			for _, v := range outs {
				if v == 1 {
					ones++
				}
			}
			sum += float64(min(ones, len(outs)-ones)) / float64(len(outs))
		}))
	return agree, sum / float64(agree.Trials)
}

// e21Consensus runs full binary-consensus trials under one register model,
// absorbing step-limit exhaustion as a measured outcome.
func e21Consensus(s harness.Sweep, model register.Semantics, be exec.Backend, mk func() sched.Scheduler) (term stats.Tally, work *obs.Hist, violations int) {
	work = &obs.Hist{}
	maxSteps := e21MaxSteps
	if be != nil {
		maxSteps = 0 // no adversary on live: termination needs no watchdog here
	}
	spec := defaultSpec(e21N, 2)
	spec.registers = model
	budgetSweep(s, spec.cell(be, mk, maxSteps),
		func(t harness.Trial, run *harness.ProtocolRun, limited bool) {
			term.Add(!limited)
			if limited {
				return
			}
			work.AddInt(run.Result.TotalWork)
			if run.CheckDecisions(spec.inputs.row(t.Index)) != nil {
				violations++
			}
		})
	return term, work, violations
}

// E21RegisterSemantics sweeps the register consistency models — atomic,
// regular, and interposed-linearizable — against an adversary ladder on the
// simulator and against real goroutine concurrency on the live backend,
// measuring conciliator agreement probability, consensus termination under a
// step budget, and total work. Safety (agreement + validity of decided
// outputs) must hold in every cell: weaker registers and stronger
// adversaries may slow consensus, never break it. The headline contrast is
// the adaptive spoiler row: under atomic registers it sees pending write
// values and splits off a larger minority share in the conciliator than
// under the interposed layer (Attiya–Enea–Welch-style linearizable
// interposition), which hides them. It does not livelock the protocol:
// every sim consensus trial terminates under all three models, so the step
// budget never binds. cfg.Registers is ignored here — the models are this
// experiment's sweep axis.
func E21RegisterSemantics(cfg Config) *Table {
	t := &Table{
		ID:    "E21",
		Title: "Register semantics: agreement, termination, and work per consistency model (both backends)",
		PaperClaim: "§2 assumes atomic registers; regular registers (Hadzilacos–Hu–Toueg) may hand " +
			"overlapping reads stale values and an interposed linearizable layer (Attiya–Enea–Welch) " +
			"blunts adaptive adversaries — safety is invariant, only δ, termination, and work move",
		Columns: []string{"backend", "registers", "adversary", "conciliator δ̂ (95% CI)", "minority share", "terminated", "total work mean/p99"},
	}
	trials := cfg.trials(120)

	advs := []adversary{
		{"round-robin", func() sched.Scheduler { return sched.NewRoundRobin() }},
		{"uniform-random", func() sched.Scheduler { return sched.NewUniformRandom() }},
		{"first-mover-attack", func() sched.Scheduler { return sched.NewFirstMoverAttack() }},
		{"stale-read-attack", func() sched.Scheduler { return sched.NewStaleReadAttack() }},
		{"adaptive-spoiler", func() sched.Scheduler { return sched.NewAdaptiveSpoiler() }},
	}
	spoilerSplit := map[register.Semantics]float64{}
	workCell := func(h *obs.Hist) string {
		if h.N() == 0 {
			return "—"
		}
		return fmt.Sprintf("%.0f / %d", h.Mean(), h.P99())
	}

	for _, model := range []register.Semantics{register.Atomic, register.Regular, register.Interposed} {
		for _, adv := range advs {
			agree, minority := e21Agreement(cfg.sweep(trials), model, nil, adv.New)
			term, work, viol := e21Consensus(cfg.sweep(trials), model, nil, adv.New)
			t.Violations += viol
			p := stats.NewProportion(agree.Successes, agree.Trials)
			if adv.Name == "adaptive-spoiler" {
				spoilerSplit[model] = minority
			}
			if adv.Name == "adaptive-spoiler" || adv.Name == "stale-read-attack" {
				t.AddDist(fmt.Sprintf("consensus total work sim/%s/%s", model, adv.Name), work)
			}
			t.AddRow("sim", model.String(), adv.Name, p.String(),
				fmt.Sprintf("%.3f", minority),
				fmt.Sprintf("%d/%d", term.Successes, term.Trials), workCell(work))
		}
	}

	// Live cells: genuine goroutine interleavings, no scripted adversary.
	// Interposed is sim-only (there is no adversary view to blunt), so the
	// live ladder covers atomic and regular.
	lt := min(trials, 24)
	for _, model := range []register.Semantics{register.Atomic, register.Regular} {
		agree, minority := e21Agreement(cfg.sweep(lt), model, live.Backend(), nil)
		term, work, viol := e21Consensus(cfg.sweep(lt), model, live.Backend(), nil)
		t.Violations += viol
		t.AddRow("live", model.String(), "goroutine",
			stats.NewProportion(agree.Successes, agree.Trials).String(),
			fmt.Sprintf("%.3f", minority),
			fmt.Sprintf("%d/%d", term.Successes, term.Trials), workCell(work))
	}

	t.AddNote("Thm 7's δ ≥ %.4f is proved for atomic registers and location-oblivious adversaries; rows outside that regime measure degradation, not a bound violation", thm7Delta)
	t.AddNote("interposed blunting: the adaptive spoiler splits a mean minority share of %.3f off the majority under atomic but only %.3f under interposed, where pending write values are hidden and it must spoil blind",
		spoilerSplit[register.Atomic], spoilerSplit[register.Interposed])
	t.AddNote("interposed is sim-only — live has no adversary view to mask — so live cells cover atomic and regular")
	return t
}
