// Package multi runs a *sequence* of consensus instances — the replicated
// state-machine workload — inside a single adversarial execution: n
// processes walk through k slots in order, solving one one-shot consensus
// per slot, all under one scheduler and one work budget. Unlike solving
// slots in separate executions, processes may be slots apart at any moment
// (a fast process can be deciding slot 7 while a slow one still announces
// in slot 2), which is exactly the interference pattern long-lived systems
// face.
package multi

import (
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// Config describes a multi-slot run. The embedded ObjectConfig is the one
// execution the whole sequence runs as (backend, adversary, seed, register
// model, faults, step budget, context); its Inputs are unused, and a nil
// File means a fresh one. The slot protocols are built in File.
type Config struct {
	harness.ObjectConfig
	// M is the value-domain size per slot.
	M int
	// Proposals is indexed [slot][pid]; its length sets the slot count.
	Proposals [][]value.Value
}

// Result reports a multi-slot run.
type Result struct {
	// Agreed holds the decided value per slot (None if no surviving
	// process decided that slot).
	Agreed []value.Value
	// Outputs is indexed [slot][pid]; None where pid never decided.
	Outputs [][]value.Value
	// Work and TotalWork are the usual cost measures over the whole run.
	Work      []int
	TotalWork int
	// Crashed reports per-process crashes.
	Crashed []bool
	// Trace is non-nil if tracing was requested.
	Trace *trace.Log
}

// Run executes the sequence and verifies agreement and validity per slot
// before returning.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("multi: N=%d must be positive", cfg.N)
	}
	if len(cfg.Proposals) == 0 {
		return nil, errors.New("multi: no slots")
	}
	for slot, props := range cfg.Proposals {
		if len(props) != cfg.N {
			return nil, fmt.Errorf("multi: slot %d has %d proposals for %d processes", slot, len(props), cfg.N)
		}
		for pid, v := range props {
			if v.IsNone() || v < 0 || int64(v) >= int64(cfg.M) {
				return nil, fmt.Errorf("multi: slot %d pid %d proposal %s outside [0,%d)", slot, pid, v, cfg.M)
			}
		}
	}

	if cfg.File == nil {
		cfg.File = register.NewFile()
	}
	slots := len(cfg.Proposals)
	protos := make([]*core.Protocol, slots)
	for slot := range protos {
		// The paper's recommended assembly plus the CIL fallback, so slots
		// always decide. Object indices carry the slot number (slot*1000 +
		// stage) so labels stay unique across slots.
		p, err := recipe.Spec{N: cfg.N, M: cfg.M, FastPath: true, Stages: 64, Fallback: true, Base: slot * 1000}.Build(cfg.File)
		if err != nil {
			return nil, fmt.Errorf("multi: slot %d: %w", slot, err)
		}
		protos[slot] = p
	}

	res := &Result{
		Agreed:  make([]value.Value, slots),
		Outputs: make([][]value.Value, slots),
	}
	for slot := range res.Outputs {
		res.Agreed[slot] = value.None
		res.Outputs[slot] = make([]value.Value, cfg.N)
		for pid := range res.Outputs[slot] {
			res.Outputs[slot][pid] = value.None
		}
	}

	run, err := harness.RunProgram(func(e core.Env) value.Value {
		pid := e.PID()
		var last value.Value = value.None
		for slot := 0; slot < slots; slot++ {
			out, ok := protos[slot].Run(e, cfg.Proposals[slot][pid])
			if !ok {
				panic("multi: slot consensus exhausted its chain despite fallback")
			}
			res.Outputs[slot][pid] = out
			last = out
		}
		return last
	}, cfg.ObjectConfig)
	if err != nil {
		return nil, err
	}
	res.Work, res.TotalWork, res.Crashed, res.Trace = run.Work, run.TotalWork, run.Crashed, run.Trace

	for slot := range res.Outputs {
		var decided []value.Value
		for pid := range res.Outputs[slot] {
			if !res.Outputs[slot][pid].IsNone() {
				decided = append(decided, res.Outputs[slot][pid])
			}
		}
		if len(decided) > 0 {
			res.Agreed[slot] = decided[0]
		}
		if err := check.Consensus(cfg.Proposals[slot], decided); err != nil {
			return res, fmt.Errorf("multi: SAFETY VIOLATION (bug) in slot %d: %w", slot, err)
		}
	}
	return res, nil
}
