package main

// -search: run the adversary-synthesis engine (internal/advsearch) as a
// standalone mode and print a JSON artifact. The workload is the same full
// binary-consensus cell the scaling benchmark uses (n=8, impatient
// conciliators, binary ratifiers, fast path, mixed inputs), so searched
// adversaries are directly comparable across artifacts. Two submodes:
//
//   - search (default): spend -search-budget trials finding a worst-case
//     scheduler in the -search-power class, stamping the full search
//     provenance (algorithm, objective, budget, seed) into the manifest.
//   - replay (-search-replay '<config>'): re-evaluate one previously found
//     parametric config at the same per-evaluation budget. Replay output is
//     bit-identical at any -workers for the same -seed, which is how a
//     found adversary is verified from the artifact alone.
//
// The artifact is reproducible from its manifest: every -search-* flag is
// echoed under manifest.config, and roundTrip records that the winner (or
// replayed) config survives a parse→print cycle of the text codec.

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/modular-consensus/modcon/internal/advsearch"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
)

// searchDefaultEvals sizes the default budget in evaluations when
// -search-budget is 0, matching E22's per-class depth.
const searchDefaultEvals = 96

// searchFlags carries the -search-* flag values into runSearch.
type searchFlags struct {
	Power     string // -search-power: class to search or replay in
	Algo      string // -search-algo: random | evolve | halving
	Objective string // -search-objective: work | violations
	Budget    int    // -search-budget: total trials (0 = 96 evaluations' worth)
	Trials    int    // -search-trials: trials per evaluation (0 = 48)
	Replay    string // -search-replay: parametric config to re-evaluate instead of searching
	Seed      uint64
	Workers   int
}

// searchArtifact is the -search output schema: a run manifest, then either
// the full search report or the single replay evaluation.
type searchArtifact struct {
	Manifest obs.Manifest      `json:"manifest"`
	Search   *advsearch.Report `json:"search,omitempty"`
	Replay   *advsearch.Eval   `json:"replay,omitempty"`
	// RoundTrip is true iff the winner (or replayed) config parses back and
	// re-prints to the same text — the codec invariant CI gates on.
	RoundTrip bool `json:"roundTrip"`
}

// searchTarget adapts the scaling workload to the search engine's target
// shape: the scheduler under test replaces the sweep's fixed adversary.
func searchTarget(regs register.Semantics) advsearch.Target {
	return advsearch.Target{
		Name:      fmt.Sprintf("binary-consensus/n=%d", scalingN),
		N:         scalingN,
		Registers: regs,
		Build:     scalingBuild,
		Inputs:    scalingInputs,
	}
}

// runSearch executes one search or replay and prints the artifact on
// stdout. Replay failures (an unparseable config) are flag errors;
// degraded candidates inside a search surface as quarantined entries in
// the report, never as process failures.
func runSearch(flags searchFlags, regs register.Semantics) error {
	power, err := sched.ParsePower(flags.Power)
	if err != nil {
		return fmt.Errorf("-search-power: %w", err)
	}
	trials := flags.Trials
	if trials <= 0 {
		trials = 48
	}
	budget := flags.Budget
	if budget <= 0 {
		budget = searchDefaultEvals * trials
	}
	opts := advsearch.Options{
		Algo:          advsearch.Algo(flags.Algo),
		Objective:     advsearch.Objective(flags.Objective),
		Power:         power,
		Budget:        budget,
		TrialsPerEval: trials,
		Seed:          flags.Seed,
		Workers:       flags.Workers,
	}
	target := searchTarget(regs)

	artifact := searchArtifact{Manifest: searchManifest(flags, regs, budget, trials)}
	if flags.Replay != "" {
		if _, err := sched.NewParametricFromString(flags.Replay); err != nil {
			return fmt.Errorf("-search-replay: %w", err)
		}
		ev := advsearch.EvaluateScheduler(target, opts, flags.Replay,
			func() (sched.Scheduler, error) { return sched.NewParametricFromString(flags.Replay) })
		artifact.Replay = &ev
		artifact.RoundTrip = configRoundTrips(flags.Replay)
	} else {
		report, err := advsearch.Search(target, opts)
		if err != nil {
			return err
		}
		artifact.Search = report
		if report.Winner != nil {
			artifact.RoundTrip = configRoundTrips(report.Winner.Config)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(artifact)
}

// configRoundTrips reports whether a parametric config survives
// parse→print unchanged.
func configRoundTrips(config string) bool {
	back, err := sched.ParseParametric(config)
	return err == nil && back.String() == config
}

// searchManifest stamps the search provenance: every flag that affects the
// result, echoed under config so the artifact reproduces itself.
func searchManifest(flags searchFlags, regs register.Semantics, budget, trials int) obs.Manifest {
	m := obs.NewManifest("modcon-bench")
	m.Seed = flags.Seed
	m.Backend = "sim"
	m.Registers = regs.String()
	algo, objective := flags.Algo, flags.Objective
	if algo == "" {
		algo = string(advsearch.AlgoEvolve)
	}
	if objective == "" {
		objective = string(advsearch.MaximizeWork)
	}
	m.Config = map[string]string{
		"search":           "true",
		"search-power":     flags.Power,
		"search-algo":      algo,
		"search-objective": objective,
		"search-budget":    fmt.Sprint(budget),
		"search-trials":    fmt.Sprint(trials),
		"search-replay":    flags.Replay,
		"seed":             fmt.Sprint(flags.Seed),
		"workers":          fmt.Sprint(flags.Workers),
		"registers":        regs.String(),
	}
	return m
}
