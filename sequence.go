package modcon

import (
	"github.com/modular-consensus/modcon/internal/multi"
	"github.com/modular-consensus/modcon/internal/register"
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
	// Trace is non-nil when RunConfig.Traced was set.
	Trace *Trace
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
// At most one RunConfig may be passed, as for Solve, and it is validated and
// honored the same way: it applies to the whole execution, so a sequence can
// run on Live (with a nil scheduler), traced, with cheap collects, or over
// regular or interposed registers.
func (c *Consensus) SolveSequence(proposals [][]Value, s Scheduler, seed uint64, run ...RunConfig) (*SequenceOutcome, error) {
	cfg, err := runConfig{n: c.spec.N, file: register.NewFile(), scheduler: s, seed: seed, program: true}.lower(run)
	if err != nil {
		return nil, err
	}
	expanded := make([][]Value, len(proposals))
	for slot, props := range proposals {
		if len(props) == 1 && c.spec.N > 1 {
			row := make([]Value, c.spec.N)
			for i := range row {
				row[i] = props[0]
			}
			expanded[slot] = row
			continue
		}
		expanded[slot] = props
	}
	res, err := multi.Run(multi.Config{ObjectConfig: cfg, M: c.spec.M, Proposals: expanded})
	if err != nil {
		return nil, err
	}
	return &SequenceOutcome{
		Agreed:    res.Agreed,
		Outputs:   res.Outputs,
		Crashed:   res.Crashed,
		Work:      res.Work,
		TotalWork: res.TotalWork,
		Trace:     res.Trace,
	}, nil
}
