package exp

// E23: workload saturation. Measure each cell's service-demand
// distribution once (demands are a property of protocol × adversary ×
// register model × seed, independent of how fast requests arrive), then
// sweep an offered-load ladder through the virtual-time service model
// (internal/workload) to map offered vs achieved decisions/sec and locate
// the saturation knee per curve. Like E21, the experiment sweeps the
// register models itself — the Attiya–Enea–Welch blunting prediction is
// that interposition shifts the knee under attack, so the models must sit
// side by side in one table. The whole experiment is a pure function of
// (seed, trials): one consensus sweep per cell plus integer-nanosecond
// queueing math, so the table is bit-identical at any worker count.

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/workload"
)

const (
	e23N       = 8
	e23M       = 2
	e23Servers = 4
)

// e23Ladder is the offered-load ladder, as fractions of each cell's
// measured service capacity (servers / mean demand). Anchoring the ladder
// to measured capacity rather than absolute rates keeps the knee inside
// the sweep for every cell and trial budget.
var e23Ladder = []float64{0.25, 0.50, 0.75, 0.90, 1.00, 1.25, 1.50}

// e23Adversaries is the scheduler axis of the saturation grid: the benign
// baseline plus the strongest catalog attack, so the knee shift under
// adversarial scheduling is visible in one table.
func e23Adversaries() []adversary {
	return []adversary{
		{"round-robin", func() sched.Scheduler { return sched.NewRoundRobin() }},
		{"first-mover-attack", func() sched.Scheduler { return sched.NewFirstMoverAttack() }},
	}
}

// E23WorkloadSaturation sweeps offered load against achieved virtual
// throughput for binary consensus per register model × adversary,
// reporting latency percentiles per ladder point and the knee per curve.
func E23WorkloadSaturation(cfg Config) *Table {
	t := &Table{
		ID:    "E23",
		Title: "Workload saturation: offered load vs achieved decisions/sec",
		PaperClaim: "§2/§5: expected per-instance work is bounded under every admissible adversary, " +
			"so consensus served as independent jobs sustains offered load up to a capacity set by " +
			"that per-instance work — and degrades past it by queueing delay, not by work blow-up; " +
			"Attiya–Enea–Welch predict interposed registers blunt the adversary, shifting the knee",
		Columns: []string{"registers", "adversary", "load", "offered/s", "achieved/s", "lat p50 µs", "lat p99 µs"},
	}
	trials := cfg.trials(256)
	stepNs := int64(workload.DefaultStep)

	// kneeRate[model][adversary] is the curve's knee as an offered rate,
	// for the blunting comparison note below.
	kneeRate := map[register.Semantics]map[string]float64{}

	for _, model := range []register.Semantics{register.Atomic, register.Regular, register.Interposed} {
		kneeRate[model] = map[string]float64{}
		// The cells of one register model differ only in their adversary,
		// so they share one session pool.
		spec := defaultSpec(e23N, e23M)
		spec.registers = model
		func() {
			pool := spec.pool()
			defer pool.Close()
			for _, adv := range e23Adversaries() {
				// One demand sweep per cell: the offered rate never changes
				// what a trial computes (arrivals live only in virtual time and
				// never reach the simulator), so every ladder point below
				// serves the same measured demands.
				demands := make([]int64, trials)
				work, _ := consensusSweep(cfg.sweep(trials), pool, adv.New,
					func(tr harness.Trial, run *harness.ProtocolRun) {
						demands[tr.Index] = int64(run.Result.TotalWork)
					})
				capacity := float64(e23Servers) * 1e9 / (work.Mean() * float64(stepNs))
				t.AddDist(fmt.Sprintf("service demand steps %s %s", model, adv.Name), work)

				var offered, achieved []float64
				for _, frac := range e23Ladder {
					ws := &workload.Spec{Kind: workload.Poisson, Rate: frac * capacity, Servers: e23Servers}
					arrivals, err := ws.Schedule(cfg.Seed, trials)
					mustSweep(err)
					served, err := ws.Serve(arrivals, demands)
					mustSweep(err)
					m := served.Metrics
					offered = append(offered, m.OfferedPerSec)
					achieved = append(achieved, m.AchievedPerSec)
					t.AddRow(model.String(), adv.Name, fmt.Sprintf("%.2f×cap", frac),
						fmt.Sprintf("%.0f", m.OfferedPerSec),
						fmt.Sprintf("%.0f", m.AchievedPerSec),
						fmt.Sprint(m.LatencyUs.P50()), fmt.Sprint(m.LatencyUs.P99()))
					if frac == 1.00 && adv.Name == "first-mover-attack" {
						t.AddDist(fmt.Sprintf("latency µs at 1.00×cap %s %s", model, adv.Name), m.LatencyUs)
					}
					if frac == 1.00 && model == register.Atomic && adv.Name == "first-mover-attack" {
						t.AddNote("reproduce this curve point: modcon-bench -workload '%s' -trials %d -seed %d (byte-identical at any -workers/-shards)",
							ws.String(), trials, cfg.Seed)
					}
				}

				knee := workload.Knee(offered, achieved, 0)
				if knee < 0 {
					t.AddNote("%s/%s: no knee located — even %.2f×cap ran below %.0f%% efficiency (the last job's tail dominates short runs; grow -trials)",
						model, adv.Name, e23Ladder[0], workload.DefaultKneeFraction*100)
				} else {
					kneeRate[model][adv.Name] = offered[knee]
					t.AddNote("%s/%s: knee at %.2f×cap (offered %.0f/s still served at ≥%.0f%% efficiency); est. capacity %.0f/s from mean demand %.0f steps",
						model, adv.Name, e23Ladder[knee], offered[knee], workload.DefaultKneeFraction*100, capacity, work.Mean())
				}
				if model == register.Atomic && adv.Name == "round-robin" {
					// Closed-loop ceiling reference: the same demands driven by
					// a think-free cohort of one client per server — the
					// throughput an open curve plateaus toward past its knee.
					closed := &workload.Spec{Kind: workload.Closed, Clients: e23Servers, Servers: e23Servers}
					ceiling, err := closed.Serve(nil, demands)
					mustSweep(err)
					t.AddNote("closed-loop ceiling for %s/%s (clients=%d, think=0): %.0f/s",
						model, adv.Name, e23Servers, ceiling.Metrics.AchievedPerSec)
				}
			}
		}()
	}

	// Blunting verdict: under the strongest attack, an interposed file hides
	// in-flight operations from the adversary, so per-instance work should
	// drop and the knee should move to a higher offered rate than atomic's.
	const attack = "first-mover-attack"
	if at, ok := kneeRate[register.Atomic][attack]; ok {
		if ip, ok := kneeRate[register.Interposed][attack]; ok {
			if ip > at {
				t.AddNote("blunting CONFIRMED under %s: interposed knee %.0f/s > atomic knee %.0f/s", attack, ip, at)
			} else {
				t.AddNote("blunting NOT CONFIRMED at this budget under %s: interposed knee %.0f/s ≤ atomic knee %.0f/s (grow -trials)", attack, ip, at)
			}
		}
	}
	t.AddNote("virtual-time model: demands measured closed-loop, served as independent FIFO jobs at %dns/step by %d servers; see EXPERIMENTS.md §E23 for the first-order caveat",
		stepNs, e23Servers)
	return t
}
