package exp

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// protoSpec is a protocol recipe for the experiments, with the register
// model its sweeps run under.
type protoSpec struct {
	recipe.Spec
	registers register.Semantics
}

// defaultSpec is the paper's recommended assembly.
func defaultSpec(n, m int) protoSpec {
	return protoSpec{Spec: recipe.Spec{N: n, M: m, FastPath: true}}
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

// adversaryPortfolio returns the named adversary constructors used across
// experiments. Conciliator experiments report the minimum δ over these.
func adversaryPortfolio() []struct {
	Name string
	New  func() sched.Scheduler
} {
	return []struct {
		Name string
		New  func() sched.Scheduler
	}{
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

// consensusSweep runs protocol executions of spec on the parallel trial
// engine, one per trial of s, under schedulers built by mk. Sessions are
// pooled: the protocol, file, and scheduler are built once per worker and
// replayed per trial; only the inputs vary with the trial index. fold runs
// one trial at a time, in trial order, on the sweep's workers, and a panic
// in it is raised again in the caller. Per-process deciding stages come
// from run.DecidedStage. Any trial error (including step-limit exhaustion)
// aborts the experiment; sweeps that must tolerate exec.ErrStepLimit call
// harness.RunTrials directly.
func consensusSweep(s harness.Sweep, spec protoSpec, mk func() sched.Scheduler, maxSteps int,
	fold func(t harness.Trial, run *harness.ProtocolRun)) {
	mustSweep(harness.SweepProtocol(s,
		harness.ProtocolSweep{
			Build: func() (*core.Protocol, harness.ObjectConfig) {
				file, proto := spec.build()
				return proto, harness.ObjectConfig{
					N: spec.N, File: file, Inputs: mixedInputs(spec.N, spec.M, 0),
					Scheduler: mk(), MaxSteps: maxSteps,
					Registers: spec.registers,
				}
			},
			Inputs: func(t harness.Trial) []value.Value {
				return mixedInputs(spec.N, spec.M, t.Index)
			},
		}, fold))
}
