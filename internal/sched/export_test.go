package sched

import "github.com/modular-consensus/modcon/internal/value"

// Hooks for the external differential tests (view_diff_test.go), which run
// the attacks' phase tracker over real simulator executions; package sim
// imports sched, so those tests live in package sched_test.

// ConcTracker is the attacks' phase tracker.
type ConcTracker = concTracker

// Observe runs the tracker on one view.
func (c *concTracker) Observe(v *View) (phase int, cur value.Value) { return c.observe(v) }

// Reset clears the tracker for a fresh execution.
func (c *concTracker) Reset() { c.reset() }

// The tracker's phases.
const (
	PhaseNeutral = phaseNeutral
	PhasePool    = phasePool
	PhaseEndgame = phaseEndgame
)

// CopyScanTracker is the tracker as it was when View.Memory was a fresh copy
// of the register file every step: it copies memory at arming and rescans
// the whole copy on every later step. Its observe is kept verbatim as the
// reference the sparse tracker must match on every view.
type CopyScanTracker struct {
	armed    bool
	baseline []value.Value
}

// Observe runs the reference tracker on one view.
func (c *CopyScanTracker) Observe(v *View) (phase int, cur value.Value) { return c.observe(v) }

// Reset clears the reference tracker for a fresh execution.
func (c *CopyScanTracker) Reset() {
	c.armed = false
	c.baseline = c.baseline[:0]
}

func (c *CopyScanTracker) observe(v *View) (phase int, cur value.Value) {
	anyProb := false
	for _, pid := range v.Runnable {
		if v.Pending[pid].Kind == OpProbWrite {
			anyProb = true
			break
		}
	}
	if !c.armed {
		if !anyProb {
			return phaseNeutral, value.None
		}
		c.armed = true
		c.baseline = append(c.baseline[:0], v.Memory...)
	}
	// Armed: look for the first cell that changed since arming; a cell past
	// the baseline has changed once it holds a value. This scan is most of
	// an attack's cost per step, so it is two tight loops over hoisted
	// slices: one loop that reloads the baseline per cell runs up to a
	// quarter slower when its code straddles one more 64-byte boundary,
	// which edits to unrelated packages can cause.
	mem, base := v.Memory, c.baseline
	if len(base) > len(mem) {
		base = base[:len(mem)]
	}
	for i, b := range base {
		if m := mem[i]; m != b && !m.IsNone() {
			return phaseEndgame, m
		}
	}
	for _, m := range mem[len(base):] {
		if !m.IsNone() {
			return phaseEndgame, m
		}
	}
	if !anyProb {
		// The round fizzled (every attempt missed and processes moved on,
		// or the protocol left the conciliator); re-arm for the next one.
		c.armed = false
		return phaseNeutral, value.None
	}
	return phasePool, value.None
}
