package exp

import (
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// protoSpec is a protocol recipe for the experiments, with the register
// model its sweeps run under and the input table its trials read.
type protoSpec struct {
	recipe.Spec
	registers register.Semantics
	inputs    inputTable
}

// defaultSpec is the paper's recommended assembly, with mixed inputs.
func defaultSpec(n, m int) protoSpec {
	return protoSpec{Spec: recipe.Spec{N: n, M: m, FastPath: true}, inputs: newInputTable(n, m)}
}

// spec is defaultSpec carrying the config's register model, so every
// consensus sweep in the suite honors -registers.
func (c Config) spec(n, m int) protoSpec {
	s := defaultSpec(n, m)
	s.registers = c.Registers
	return s
}

// build constructs a fresh one-shot protocol instance.
func (s protoSpec) build() (*register.File, *core.Protocol) {
	file := register.NewFile()
	proto, err := s.Build(file)
	if err != nil {
		panic(fmt.Sprintf("exp: bad protocol spec: %v", err))
	}
	return file, proto
}

// mixedInputs gives process i input (i+shift) mod m.
func mixedInputs(n, m, shift int) []value.Value {
	in := make([]value.Value, n)
	for i := range in {
		in[i] = value.Value((i + shift) % m)
	}
	return in
}

// inputTable is a cell's inputs, built once with the cell and shared
// read-only by its sessions and checks: row k is mixedInputs(n, m, k), and
// trial i reads row i mod m, which is mixedInputs(n, m, i). A one-row table
// (m = 1) gives every process input 0 in every trial.
type inputTable [][]value.Value

func newInputTable(n, m int) inputTable {
	in := make(inputTable, m)
	for k := range in {
		in[k] = mixedInputs(n, m, k)
	}
	return in
}

// row returns the inputs of trial i.
func (in inputTable) row(i int) []value.Value { return in[i%len(in)] }

// of is row as a sweep's per-trial Inputs hook.
func (in inputTable) of(t harness.Trial) []value.Value { return in.row(t.Index) }

// adversary is one named entry of an experiment's adversary axis, with a
// constructor that builds a fresh scheduler per pooled session.
// Experiments that sweep a cell under every adversary keep the cell's
// session pool across them, so each sweep installs one of these on each
// session it runs on.
type adversary struct {
	Name string
	New  func() sched.Scheduler
}

// adversaryPortfolio returns the named adversary constructors used across
// experiments. Conciliator experiments report the minimum δ over these.
func adversaryPortfolio() []adversary {
	return []adversary{
		{"round-robin", func() sched.Scheduler { return sched.NewRoundRobin() }},
		{"uniform-random", func() sched.Scheduler { return sched.NewUniformRandom() }},
		{"lockstep", func() sched.Scheduler { return sched.NewLaggard() }},
		{"first-mover-attack", func() sched.Scheduler { return sched.NewFirstMoverAttack() }},
		{"eager-write-attack", func() sched.Scheduler { return sched.NewEagerWriteAttack() }},
	}
}

// mustSweep panics on trial-engine errors: a failed or cancelled trial is
// fatal to an experiment, and the drivers (cmd/modcon-bench) recover the
// panic to report cancellation cleanly.
func mustSweep(err error) {
	if err != nil {
		panic(fmt.Sprintf("exp: sweep failed: %v", err))
	}
}

// objectCell is the cell of a pooled object sweep over n processes: Build
// makes a register file, the object build lays out in it and a scheduler
// from mk (none when mk is nil: each sweep of the cell's pool then brings
// its own), once per session, and trial i runs with inputs in.row(i).
func objectCell(n int, in inputTable, mk func() sched.Scheduler, build func(*register.File) core.Object) harness.ObjectSweep {
	return harness.ObjectSweep{
		Build: func() (core.Object, harness.ObjectConfig) {
			file := register.NewFile()
			oc := harness.ObjectConfig{N: n, File: file, Inputs: in.row(0)}
			if mk != nil {
				oc.Scheduler = mk()
			}
			return build(file), oc
		},
		Inputs: in.of,
	}
}

// cell is spec's cell for a pooled protocol sweep. Build builds the
// protocol once per session, on backend be (nil = sim), under a scheduler
// from mk (nil on a backend without adversary control) and with step
// budget maxSteps (0 = the backend's default). Trial i runs with inputs
// s.inputs.row(i).
func (s protoSpec) cell(be exec.Backend, mk func() sched.Scheduler, maxSteps int) harness.ProtocolSweep {
	return harness.ProtocolSweep{
		Build: func() (*core.Protocol, harness.ObjectConfig) {
			file, proto := s.build()
			oc := harness.ObjectConfig{
				N: s.N, File: file, Inputs: s.inputs.row(0),
				Backend: be, MaxSteps: maxSteps, Registers: s.registers,
			}
			if mk != nil {
				oc.Scheduler = mk()
			}
			return proto, oc
		},
		Inputs: s.inputs.of,
	}
}

// protoPool is a protocol spec's session pool on the simulator, with the
// input table its trials read. It serves every sweep of the spec that
// differs only in its adversary: each worker builds the protocol and spawns
// its processes once for all of them. Its opener closes it when the last
// of those sweeps returns.
type protoPool struct {
	*harness.ProtocolPool
	inputs inputTable
}

// pool opens spec's session pool.
func (s protoSpec) pool() protoPool {
	return protoPool{harness.NewProtocolPool(s.cell(nil, nil, 0)), s.inputs}
}

// consensusSweep runs one execution of pool's spec per trial of s, on the
// pool's sessions under schedulers built by mk, on the strict engine: any
// trial error, step-limit exhaustion included, aborts the experiment, and
// so does a trial whose decisions break agreement or validity against its
// inputs. It returns the sweep's histograms of total work (steps) and
// maximum individual work (work) over all its trials. fold, which may be
// nil, runs one trial at a time, in trial order, on the sweep's workers,
// and a panic in it is raised again in the caller; per-process deciding
// stages come from run.DecidedStage, and run is valid only during the fold
// call. Cells whose step budget is part of what they measure run on
// budgetSweep instead. This one stays strict because the strict fold
// merges the run that is next in place, while a robust attempt copies
// every run before its session goes back.
func consensusSweep(s harness.Sweep, pool protoPool, mk func() sched.Scheduler,
	fold func(t harness.Trial, run *harness.ProtocolRun)) (steps, work *obs.Hist) {
	s.StepsHist, s.WorkHist = &obs.Hist{}, &obs.Hist{}
	mustSweep(pool.Sweep(s, mk, func(t harness.Trial, run *harness.ProtocolRun) {
		if err := run.CheckDecisions(pool.inputs.row(t.Index)); err != nil {
			panic(err)
		}
		if fold != nil {
			fold(t, run)
		}
	}))
	return s.StepsHist, s.WorkHist
}

// sweepOnce is consensusSweep on a pool of spec's own, closed when the
// sweep returns or panics: the sweep of a spec that serves one adversary.
func (spec protoSpec) sweepOnce(s harness.Sweep, mk func() sched.Scheduler,
	fold func(t harness.Trial, run *harness.ProtocolRun)) (steps, work *obs.Hist) {
	pool := spec.pool()
	defer pool.Close()
	return consensusSweep(s, pool, mk, fold)
}

// budgetSweep runs one execution of cell per trial of s on the robust
// engine, with no watchdog and no retries, so that a trial that exhausts
// the cell's step budget reaches fold with limited set instead of failing
// the sweep. A violated trial reaches fold too; a panicked, failed or
// timed-out one aborts the experiment, as mustSweep does.
func budgetSweep(s harness.Sweep, cell harness.ProtocolSweep,
	fold func(t harness.Trial, run *harness.ProtocolRun, limited bool)) {
	_, err := harness.SweepProtocolRobust(s, harness.Resilience{}, cell,
		func(t harness.Trial, run *harness.ProtocolRun, rep harness.TrialReport) {
			switch rep.Outcome {
			case harness.OutcomePanicked, harness.OutcomeFailed, harness.OutcomeTimeout:
				mustSweep(fmt.Errorf("trial %d: %w", t.Index, rep.Err))
			}
			fold(t, run, errors.Is(rep.Err, exec.ErrStepLimit))
		})
	mustSweep(err)
}
