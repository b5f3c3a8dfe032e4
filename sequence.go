package modcon

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/multi"
)

// SequenceOutcome reports a multi-slot consensus run (a replicated log).
type SequenceOutcome struct {
	// Agreed holds the decided value of each slot.
	Agreed []Value
	// Outputs is indexed [slot][pid] (None where pid never decided a slot,
	// e.g. after crashing).
	Outputs [][]Value
	// Crashed reports per-process crashes.
	Crashed []bool
	// Work and TotalWork cover the whole execution.
	Work      []int
	TotalWork int
}

// SolveSequence runs len(proposals) consensus instances — one per log slot
// — inside a *single* adversarial execution: every process walks the slots
// in order, so a fast process may be several slots ahead of a slow one,
// exactly as in a long-lived replicated state machine. proposals is indexed
// [slot][pid] (or [slot][0] broadcast to all processes); per-slot agreement
// and validity are verified before returning.
//
// The per-slot protocol follows this spec's n and m with the paper-default
// assembly plus the CIL fallback (slots always decide); the spec's other
// options currently do not apply to sequences.
//
// At most one RunConfig may be passed, as for Solve, and it is validated the
// same way. A sequence runs untraced on the Sim backend with atomic
// registers and standard collects, so a config asking for Live, Traced,
// CheapCollect or another register model is rejected with an error wrapping
// ErrOptionUnsupported. MaxSteps, CrashAfter, Faults and Context apply to the
// whole execution, and Power is checked against s as in Solve.
func (c *Consensus) SolveSequence(proposals [][]Value, s Scheduler, seed uint64, run ...RunConfig) (*SequenceOutcome, error) {
	rc, err := oneRunConfig(run)
	if err != nil {
		return nil, err
	}
	if err := rc.Backend.validateOptions(s, rc.Power, rc.Traced, rc.Registers); err != nil {
		return nil, err
	}
	if _, err := rc.Backend.impl(); err != nil {
		return nil, err
	}
	var unsupported string
	switch {
	case rc.Backend != Sim:
		unsupported = "the " + rc.Backend.String() + " backend"
	case rc.Traced:
		unsupported = "tracing"
	case rc.CheapCollect:
		unsupported = "cheap collects"
	case rc.Registers != Atomic:
		unsupported = rc.Registers.String() + " registers"
	}
	if unsupported != "" {
		return nil, fmt.Errorf("SolveSequence does not support %s (sequences run untraced on the sim backend with atomic registers): %w", unsupported, ErrOptionUnsupported)
	}
	expanded := make([][]Value, len(proposals))
	for slot, props := range proposals {
		if len(props) == 1 && c.n > 1 {
			row := make([]Value, c.n)
			for i := range row {
				row[i] = props[0]
			}
			expanded[slot] = row
			continue
		}
		expanded[slot] = props
	}
	res, err := multi.Run(multi.Config{
		N: c.n, M: c.m,
		Proposals:  expanded,
		Scheduler:  s,
		Seed:       seed,
		MaxSteps:   rc.MaxSteps,
		CrashAfter: rc.CrashAfter,
		Faults:     rc.Faults,
		Context:    rc.Context,
	})
	if err != nil {
		return nil, err
	}
	return &SequenceOutcome{
		Agreed:    res.Agreed,
		Outputs:   res.Outputs,
		Crashed:   res.Crashed,
		Work:      res.Work,
		TotalWork: res.TotalWork,
	}, nil
}
