package exp

// E22: adversary synthesis. Search the parametric scheduler family
// (internal/advsearch) for worst-case adversaries of each power class, then
// re-run the best-found configs against the fixed attack catalog as
// baselines — same target, same seeds, same trial count — so the comparison
// is apples to apples. The experiment carries the repo's pre-registered
// hypotheses (hypotheses/H1-*.md, H2-*.md): each note below states the
// measured verdict the files record.

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/advsearch"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
)

const (
	e22N        = 8
	e22M        = 2
	e22MaxSteps = 1 << 20
	// e22BudgetEvals sizes the search budget in evaluations (× trials per
	// evaluation), so -trials scales search depth and measurement precision
	// together. 96 evaluations gives the evolve loop room for several
	// lineage restarts, which is what it takes to escape a weak initial
	// basin and reach the hold-probe region reliably.
	e22BudgetEvals = 96
)

// e22Target adapts the suite's standard binary-consensus cell to the
// search engine's target shape, honoring cfg's register model.
func e22Target(cfg Config) advsearch.Target {
	spec := cfg.spec(e22N, e22M)
	return advsearch.Target{
		Name:      fmt.Sprintf("binary-consensus/n=%d", e22N),
		N:         e22N,
		Registers: spec.registers,
		MaxSteps:  e22MaxSteps,
		Build: func() (*core.Protocol, *register.File) {
			file, proto := spec.build()
			return proto, file
		},
		Inputs: spec.inputs.of,
	}
}

// e22Baselines is the attack-catalog slice admissible at power p (every
// fixed adversary whose declared MinPower fits the class under test).
func e22Baselines(p sched.Power) []adversary {
	var out []adversary
	for _, a := range []adversary{
		{"round-robin", func() sched.Scheduler { return sched.NewRoundRobin() }},
		{"uniform-random", func() sched.Scheduler { return sched.NewUniformRandom() }},
		{"lockstep", func() sched.Scheduler { return sched.NewLaggard() }},
		{"frontrunner", func() sched.Scheduler { return sched.NewFrontrunner() }},
		{"split-vote", func() sched.Scheduler { return sched.NewSplitVote() }},
		{"stale-read-attack", func() sched.Scheduler { return sched.NewStaleReadAttack() }},
		{"first-mover-attack", func() sched.Scheduler { return sched.NewFirstMoverAttack() }},
		{"eager-write-attack", func() sched.Scheduler { return sched.NewEagerWriteAttack() }},
	} {
		if a.New().MinPower() <= p {
			out = append(out, a)
		}
	}
	return out
}

// E22AdversarySearch searches each power class for a worst-case scheduler
// and pits the winner against the admissible attack catalog at an equal
// trial budget. Safety must hold under every candidate the search tries —
// a violated trial anywhere is a bug, counted like any other experiment's.
func E22AdversarySearch(cfg Config) *Table {
	t := &Table{
		ID:    "E22",
		Title: "Adversary synthesis: searched schedulers vs the attack catalog",
		PaperClaim: "§2.1/§5: the expected-work bounds hold against entire adversary classes, " +
			"so a black-box search over a class should find members at least as strong as " +
			"any hand-written attack in it — without ever breaking agreement or validity",
		Columns: []string{"power", "adversary", "trials", "outcomes", "work mean", "work p99"},
	}
	trialsPerEval := cfg.trials(48)
	budget := e22BudgetEvals * trialsPerEval
	target := e22Target(cfg)

	type cell struct {
		power   sched.Power
		winner  *advsearch.Eval
		best    advsearch.Eval // strongest catalog baseline
		bestSet bool
	}
	var cells []cell

	outcomesCell := func(ev advsearch.Eval) string {
		if ev.Quarantined {
			return "quarantined"
		}
		rep := harness.SweepReport{Trials: ev.Trials, Counts: map[harness.TrialOutcome]int{}}
		for o, n := range ev.Outcomes {
			rep.Counts[harness.TrialOutcome(o)] = n
		}
		return rep.String()
	}
	workCells := func(ev advsearch.Eval) (mean, p99 string) {
		if ev.Work == nil || ev.Work.N() == 0 {
			return "-", "-"
		}
		return fmt.Sprintf("%.0f", ev.Work.Mean()), fmt.Sprint(ev.Work.P99())
	}

	for _, p := range []sched.Power{sched.ValueOblivious, sched.LocationOblivious} {
		opts := advsearch.Options{
			Algo: advsearch.AlgoEvolve, Objective: advsearch.MaximizeWork,
			Power: p, Budget: budget, TrialsPerEval: trialsPerEval,
			Seed: cfg.Seed, Workers: cfg.Workers,
		}
		report, err := advsearch.Search(target, opts)
		mustSweep(err)
		for _, ev := range report.Evals {
			t.Violations += ev.Outcomes[string(harness.OutcomeViolated)]
		}
		c := cell{power: p, winner: report.Winner}
		if report.Winner != nil {
			mean, p99 := workCells(*report.Winner)
			t.AddRow(p.String(), "searched (see note)", fmt.Sprint(report.Winner.Trials),
				outcomesCell(*report.Winner), mean, p99)
			t.AddNote("searched %s winner (%d evals, %d trials spent): %s",
				p, report.Evaluations, report.TrialsSpent, report.Winner.Config)
			if back, perr := sched.ParseParametric(report.Winner.Config); perr != nil || back.String() != report.Winner.Config {
				t.AddNote("E22 FAILED: %s winner config does not round-trip through the codec", p)
			}
		} else {
			t.AddRow(p.String(), "searched", "-", "no healthy winner", "-", "-")
			t.AddNote("E22 FAILED: %s search produced no healthy winner (%d quarantined)", p, len(report.Quarantined))
		}
		if q := len(report.Quarantined); q > 0 {
			t.AddNote("%s search quarantined %d/%d candidates instead of aborting", p, q, report.Evaluations)
		}

		for _, b := range e22Baselines(p) {
			mk := b.New
			ev := advsearch.EvaluateScheduler(target, opts, b.Name,
				func() (sched.Scheduler, error) { return mk(), nil })
			t.Violations += ev.Outcomes[string(harness.OutcomeViolated)]
			mean, p99 := workCells(ev)
			t.AddRow(p.String(), b.Name, fmt.Sprint(ev.Trials), outcomesCell(ev), mean, p99)
			if !ev.Quarantined && (!c.bestSet || ev.Score > c.best.Score) {
				c.best, c.bestSet = ev, true
			}
		}
		cells = append(cells, c)
	}

	// H1 (hypotheses/H1-searched-beats-catalog.md): on at least one power
	// class the searched adversary extracts strictly more mean work than
	// every admissible catalog attack at the same trial budget.
	h1 := false
	for _, c := range cells {
		if c.winner != nil && c.bestSet && c.winner.Score > c.best.Score {
			h1 = true
			t.AddNote("H1 CONFIRMED on %s: searched %.0f > best catalog (%s) %.0f mean work",
				c.power, c.winner.Score, c.best.Config, c.best.Score)
		}
	}
	if !h1 {
		t.AddNote("H1 NOT CONFIRMED at this budget: no searched winner strictly beat its catalog baselines (grow -trials to deepen the search)")
	}
	// H2 (hypotheses/H2-power-monotonicity.md): a stronger class's searched
	// worst case is at least as costly as a weaker class's.
	if len(cells) == 2 && cells[0].winner != nil && cells[1].winner != nil {
		vo, lo := cells[0].winner.Score, cells[1].winner.Score
		if lo >= vo {
			t.AddNote("H2 CONFIRMED: location-oblivious winner %.0f ≥ value-oblivious winner %.0f mean work", lo, vo)
		} else {
			t.AddNote("H2 NOT CONFIRMED at this budget: location-oblivious winner %.0f < value-oblivious winner %.0f", lo, vo)
		}
	}
	if t.Violations > 0 {
		t.AddNote("E22 FAILED: %d SAFETY VIOLATIONS under searched/catalog adversaries", t.Violations)
	} else {
		t.AddNote("safety held in every classified trial under every candidate and baseline")
	}
	t.AddNote("reproduce a winner: modcon-bench -search -search-power <class> -seed %d -search-trials %d -search-budget %d; replay its config with -search-replay '<config>' (bit-identical at any -workers)",
		cfg.Seed, trialsPerEval, budget)
	return t
}
