package sim

import (
	"context"
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// The simulated environment must satisfy the object model's Env contract.
var _ core.Env = (*Env)(nil)

// backend adapts the simulator to the backend-neutral exec contract. The
// adapter's only cost is one closure per program, paid once per session;
// the step loop is untouched, so the seam adds no per-step allocations or
// indirection (the zero-alloc pins in engine_bench_test.go hold on this
// path).
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

// session adapts one Engine plus a once-compiled fault injector to the
// exec.Session seam.
type session struct {
	eng *Engine
	inj *fault.Injector
}

// NewSession implements exec.Backend with the reusable Engine: one
// construction (registers snapshot, coroutines, buffers, program closures,
// fault compilation) serves every subsequent Run, and a single execution is
// one Run of a fresh session. The simulator mutates cfg.File during
// execution, so the session restores the file's initial image on every Run
// — otherwise trial k+1 would start from trial k's leftover registers.
func (backend) NewSession(cfg exec.Config, programs ...exec.Program) (exec.Session, error) {
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler (the sim backend requires an explicit adversary)")
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.N); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	// Thresholds and probabilities are seed-independent; Engine.Reset
	// rewinds the fault streams to each trial's seed, so one compile serves
	// the whole session. (Stall plans are legal here even without a config
	// context — Engine.Run demands a per-trial context for them instead.)
	inj, err := fault.Compile(cfg.Faults, cfg.N, 0)
	if err != nil {
		return nil, err
	}
	progs := make([]Program, len(programs))
	for i, p := range programs {
		p := p
		progs[i] = func(e *Env) value.Value { return p(e) }
	}
	eng, err := NewEngine(Config{
		N:            cfg.N,
		File:         cfg.File,
		Scheduler:    cfg.Scheduler,
		Trace:        cfg.Trace,
		CheapCollect: cfg.CheapCollect,
		Registers:    cfg.Registers,
		MaxSteps:     cfg.MaxSteps,
		Meter:        cfg.Meter,
	}, progs...)
	if err != nil {
		return nil, err
	}
	return &session{eng: eng, inj: inj}, nil
}

// Run implements exec.Session: Reset rewinds the engine (and the injector's
// fault streams) to seed, then one trial runs under ctx. The result is
// engine-owned and invalidated by the next Run.
func (s *session) Run(ctx context.Context, seed uint64) (*exec.Result, error) {
	if err := s.eng.Reset(seed, s.inj); err != nil {
		return nil, err
	}
	return s.eng.Run(ctx)
}

// SetScheduler installs s as the adversary of the session's later Runs
// (Engine.SetScheduler): a pooled caller with a fresh scheduler per
// execution reuses the session instead of opening one per scheduler.
func (s *session) SetScheduler(sch sched.Scheduler) { s.eng.SetScheduler(sch) }

// Close implements exec.Session.
func (s *session) Close() error { return s.eng.Close() }
