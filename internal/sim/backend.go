package sim

import (
	"context"
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// The simulated environment must satisfy the object model's Env contract.
var _ core.Env = (*Env)(nil)

// backend adapts the simulator to the backend-neutral exec contract. The
// adapter's only per-run cost is one closure per program; the step loop is
// untouched, so the seam adds no per-step allocations or indirection (the
// zero-alloc and speedup pins in engine_bench_test.go hold on this path).
type backend struct{}

// Backend returns the simulator as an exec.Backend.
func Backend() exec.Backend { return backend{} }

// Name implements exec.Backend.
func (backend) Name() string { return "sim" }

// Capabilities implements exec.Backend: the simulator has full adversary
// control, deterministic replay, trace recording, every register model, and
// a genuinely resettable engine behind NewSession (0 allocs/trial after
// warmup), which pooled sweeps replay once per trial; its clock is
// simulated steps, not wall time.
func (backend) Capabilities() exec.Capabilities {
	return exec.Capabilities{
		Adversary: true, Tracing: true, Deterministic: true, Reusable: true,
		Semantics: register.SetOf(register.Atomic, register.Regular, register.Interposed),
	}
}

// session adapts one Engine plus a once-compiled fault injector to the
// exec.Session seam.
type session struct {
	eng *Engine
	inj *fault.Injector
}

// NewSession implements exec.Backend with the native reusable Engine: one
// construction (registers snapshot, coroutines, buffers, program closures,
// fault compilation) serves every subsequent Run. The simulator mutates
// cfg.File during execution, so the session restores the file's initial
// image on every Run — a one-shot fallback would corrupt trial k+1 with
// trial k's leftover registers, which is why sim uses the Engine here
// rather than exec.NewOneShotSession.
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

// Close implements exec.Session.
func (s *session) Close() error { return s.eng.Close() }

// Run implements exec.Backend by bridging exec.Program (written against
// core.Env) onto the simulator's concrete *Env programs.
func (backend) Run(cfg exec.Config, programs ...exec.Program) (*exec.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler (the sim backend requires an explicit adversary)")
	}
	inj, err := fault.Compile(cfg.Faults, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	progs := make([]Program, len(programs))
	for i, p := range programs {
		p := p
		progs[i] = func(e *Env) value.Value { return p(e) }
	}
	return Run(Config{
		N:            cfg.N,
		File:         cfg.File,
		Scheduler:    cfg.Scheduler,
		Seed:         cfg.Seed,
		Trace:        cfg.Trace,
		CheapCollect: cfg.CheapCollect,
		Registers:    cfg.Registers,
		Faults:       inj,
		MaxSteps:     cfg.MaxSteps,
		Context:      cfg.Context,
		Meter:        cfg.Meter,
	}, progs...)
}
