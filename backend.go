package modcon

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/live"
	"github.com/modular-consensus/modcon/internal/sim"
)

// Backend selects the execution model for Run, RunProtocol, Simulate,
// Consensus.Solve, Consensus.SolveSequence and Consensus.Sweep. The same
// objects and protocols — written once against Env — run unchanged on
// either backend; only how operations are interleaved (and what can be
// observed about the run) differs.
//
//	Capability          Sim                    Live
//	adversary control   yes (WithScheduler)    no (the Go scheduler decides)
//	tracing             yes (WithTrace)        no
//	deterministic       yes (pure fn of seed)  coins only; not interleaving
//	wall-clock timing   no (simulated steps)   yes
//	register models     atomic, regular,       atomic, regular
//	                    interposed             (no adversary to blunt)
//
// Asking a backend for a capability it lacks is a configuration error with
// a precise message, never silent misbehavior. Work accounting (TotalWork,
// Work) is exact on both; for single-process executions the two backends
// produce bit-identical decisions and op counts.
type Backend int

const (
	// Sim is the deterministic discrete-event simulator (the default): the
	// adversary is an explicit Scheduler, executions are pure functions of
	// (protocol, scheduler, seed), and full traces can be recorded. It is
	// the ground truth for the paper's cost measures.
	Sim Backend = iota
	// Live runs processes as free-running goroutines over sync/atomic
	// registers: the hardware scheduler decides the interleaving, so runs
	// measure real concurrent behavior and wall-clock time. Safety
	// properties must hold on every run; schedule distribution is not
	// controlled.
	Live
)

// String returns the backend's name ("sim", "live").
func (b Backend) String() string {
	switch b {
	case Sim:
		return "sim"
	case Live:
		return "live"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// impl resolves the public enum to the internal backend implementation.
func (b Backend) impl() (exec.Backend, error) {
	switch b {
	case Sim:
		return sim.Backend(), nil
	case Live:
		return live.Backend(), nil
	default:
		return nil, fmt.Errorf("unknown backend %d: %w", int(b), ErrBadOption)
	}
}

// validateOptions checks the options against what the resolved backend can
// do, as its Capabilities declare, so a misconfiguration fails with an
// actionable message instead of surfacing from deep inside the backend.
// Every error wraps a typed sentinel: ErrBadOption for a missing or invalid
// value, ErrOptionUnsupported for an option the backend cannot honor.
func (c *runConfig) validateOptions(be exec.Backend) error {
	switch c.Registers {
	case Atomic, Regular, Interposed:
	default:
		return fmt.Errorf("unknown register model %d (use Atomic, Regular, or Interposed): %w", int(c.Registers), ErrBadOption)
	}
	if c.Power != 0 && (c.Power < Oblivious || c.Power > Adaptive) {
		return fmt.Errorf("unknown adversary power class %d (use Oblivious, ValueOblivious, LocationOblivious, or Adaptive): %w", int(c.Power), ErrBadOption)
	}
	caps := be.Capabilities()
	switch {
	case caps.Adversary && c.scheduler == nil:
		return fmt.Errorf("a scheduler is required (WithScheduler, or Sweep's factory): the %s backend needs an explicit adversary; use Live to run without one: %w", be.Name(), ErrBadOption)
	case caps.Adversary && c.Power != 0 && c.scheduler.MinPower() > c.Power:
		return fmt.Errorf("scheduler %q requires at least %s power, but WithPower caps the adversary at %s: %w", c.scheduler.Name(), c.scheduler.MinPower(), c.Power, ErrBadOption)
	case !caps.Adversary && c.Power != 0:
		return fmt.Errorf("an adversary power cap is sim-only: the %s backend has no adversary whose information class could be capped: %w", be.Name(), ErrOptionUnsupported)
	case !caps.Adversary && c.scheduler != nil:
		return fmt.Errorf("a scheduler is sim-only: the %s backend has no adversary control (the Go scheduler decides the interleaving): %w", be.Name(), ErrOptionUnsupported)
	case !caps.Tracing && c.Traced:
		return fmt.Errorf("tracing is sim-only: the %s backend has no global step sequence to record: %w", be.Name(), ErrOptionUnsupported)
	case c.Registers != Atomic && !caps.Semantics.Has(c.Registers):
		return fmt.Errorf("%s registers are sim-only: the %s backend does not implement them: %w", c.Registers, be.Name(), ErrOptionUnsupported)
	}
	return nil
}
