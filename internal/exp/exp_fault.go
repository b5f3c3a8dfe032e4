package exp

import (
	"fmt"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/live"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/sched"
)

// E20 fault-intensity sweep parameters. The stall row livelocks every
// process by construction, so it runs few trials under a short watchdog —
// the point is that the watchdog fires and the sweep completes, not the
// (empty) statistics.
const (
	e20N             = 8
	e20M             = 2
	e20MaxSteps      = 2_000_000
	e20Deadline      = 10 * time.Second
	e20StallDeadline = 250 * time.Millisecond
	e20StallTrials   = 4
)

// e20Scenario is one fault-intensity level of the sweep.
type e20Scenario struct {
	name  string
	plan  *fault.Plan
	stall bool // every process livelocks; only the watchdog ends a trial
}

// e20Scenarios orders the sweep from no faults to total livelock.
func e20Scenarios() []e20Scenario {
	crashK := func(k, after int) *fault.Plan {
		fs := make([]fault.Fault, 0, k)
		for pid := 0; pid < k; pid++ {
			fs = append(fs, fault.Crash(pid, after))
		}
		return fault.New(fs...)
	}
	return []e20Scenario{
		{name: "none", plan: nil},
		{name: "crash 2/8 after 5 ops", plan: crashK(2, 5)},
		{name: "crash 4/8 after 5 ops", plan: crashK(4, 5)},
		{name: "crash 7/8 after 3 ops", plan: crashK(7, 3)},
		{name: "losecoin p=1/4 all", plan: fault.New(fault.LoseCoin(fault.AllProcs, 1, 4))},
		{name: "losecoin p=3/4 all", plan: fault.New(fault.LoseCoin(fault.AllProcs, 3, 4))},
		{name: "stall all after 2 ops", plan: fault.New(fault.Stall(fault.AllProcs, 2)), stall: true},
	}
}

// E20FaultIntensity sweeps fault intensity — crash fractions, lost-coin
// probabilities, total stall — over the full binary protocol (with the CIL
// fallback) on both backends, running every cell on the resilient trial
// engine. Safety must hold in every classified trial at every intensity;
// termination and work are allowed to degrade, and the stall row must be
// killed by the per-trial deadline watchdog (classified timeout) while the
// sweep still completes with correct partial aggregates.
func E20FaultIntensity(cfg Config) *Table {
	t := &Table{
		ID:    "E20",
		Title: "Fault intensity vs termination and work (robust sweeps, both backends)",
		PaperClaim: "§2: consensus safety is schedule- and crash-independent — failures may " +
			"only slow termination or suppress decisions, never produce disagreement",
		Columns: []string{"backend", "faults", "trials", "outcomes", "decided/trial", "ok work mean/p99"},
	}
	trials := cfg.trials(20)
	spec := cfg.spec(e20N, e20M)
	spec.Fallback = true

	backends := []struct {
		name string
		cfg  func(base harness.ObjectConfig) harness.ObjectConfig
	}{
		{"sim", func(base harness.ObjectConfig) harness.ObjectConfig {
			base.Scheduler = sched.NewUniformRandom()
			return base
		}},
		{"live", func(base harness.ObjectConfig) harness.ObjectConfig {
			base.Backend = live.Backend()
			return base
		}},
	}

	for _, be := range backends {
		for _, sc := range e20Scenarios() {
			ct, deadline := trials, e20Deadline
			if sc.stall {
				ct, deadline = min(trials, e20StallTrials), e20StallDeadline
			}
			rz := harness.Resilience{Deadline: deadline, Retries: 1, FailFast: cfg.FailFast}
			var decided obs.Hist
			s := cfg.sweep(ct)
			s.StepsHist = &obs.Hist{} // the robust engine meters only OK trials
			report, err := harness.SweepProtocolRobust(s, rz,
				harness.ProtocolSweep{
					Build: func() (*core.Protocol, harness.ObjectConfig) {
						file, proto := spec.build()
						return proto, be.cfg(harness.ObjectConfig{
							N: e20N, File: file, Inputs: spec.inputs.row(0),
							MaxSteps: e20MaxSteps, Faults: sc.plan,
							Registers: spec.registers,
						})
					},
					Inputs: spec.inputs.of,
				},
				func(tr harness.Trial, run *harness.ProtocolRun, rep harness.TrialReport) {
					if run == nil || rep.Outcome != harness.OutcomeOK {
						return
					}
					n := 0
					for _, d := range run.Decided {
						if d {
							n++
						}
					}
					decided.AddInt(n)
				})
			mustSweep(err)
			t.Violations += report.Violations()

			workCell, decidedCell := "-", "-"
			if s.StepsHist.N() > 0 {
				workCell = fmt.Sprintf("%.0f/%d", s.StepsHist.Mean(), s.StepsHist.P99())
				decidedCell = fmt.Sprintf("%.1f", decided.Mean())
			}
			t.AddRow(be.name, sc.name, fmt.Sprintf("%d", report.Trials), report.String(), decidedCell, workCell)

			if v := report.Violations(); v > 0 {
				t.AddNote("E20 FAILED: %d SAFETY VIOLATIONS on %s under %q", v, be.name, sc.name)
				if cfg.FailFast {
					t.AddNote("fail-fast: sweep stopped at the first violation; later cells skipped")
					return t
				}
			}
		}
	}
	if t.Violations == 0 {
		t.AddNote("safety held in every classified trial at every fault intensity on both backends")
	}
	t.AddNote("stall rows livelock every process by construction: the %v watchdog kills each trial (outcome timeout) and the sweep completes with partial aggregates", e20StallDeadline)
	t.AddNote("crash rows suppress decisions (fewer deciders, less total work); losecoin rows slow the probabilistic-write race, raising work before the fallback decides")
	return t
}
