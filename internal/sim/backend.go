package sim

import (
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
)

// The simulated environment must satisfy the object model's Env contract.
var _ core.Env = (*env)(nil)

// backend is the simulator as an exec.Backend. Its sessions are engines, so
// programs reach the step loop through core.Env with no adapter in between.
type backend struct{}

// Backend returns the simulator as an exec.Backend.
func Backend() exec.Backend { return backend{} }

// Name implements exec.Backend.
func (backend) Name() string { return "sim" }

// Capabilities implements exec.Backend: the simulator has full adversary
// control, trace recording, and every register model.
func (backend) Capabilities() exec.Capabilities {
	return exec.Capabilities{
		Adversary: true, Tracing: true,
		Semantics: register.SetOf(register.Atomic, register.Regular, register.Interposed),
	}
}

// NewSession implements exec.Backend with a reusable engine: one
// construction (register image, coroutines, buffers, fault compilation)
// serves every later Run, and a single execution is one Run of a fresh
// session. The simulator mutates cfg.File during execution, so every Run
// restores the file's initial image first.
func (backend) NewSession(cfg exec.Config, programs ...exec.Program) (exec.Session, error) {
	eng, err := newEngine(cfg, programs...)
	if err != nil {
		// Not eng: a nil *engine in a non-nil exec.Session would pass every
		// err != nil check.
		return nil, err
	}
	return eng, nil
}
