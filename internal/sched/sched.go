// Package sched defines the adversary scheduler of the asynchronous
// shared-memory model and a portfolio of concrete adversary strategies.
//
// The model (§2 of the paper): every process that has not halted has exactly
// one pending operation; an execution is constructed by repeatedly applying
// pending operations, and the choice of which pending operation occurs next
// is made by an adversary — a function from (its view of) the partial
// execution to a process id.
//
// Adversary strength (§2.1) is modeled by Power, which controls which fields
// of the View the runtime populates:
//
//   - Oblivious: sees only the execution length and which processes are
//     still runnable.
//   - ValueOblivious: additionally sees pending operation types and
//     locations, but neither register contents nor pending write values.
//   - LocationOblivious: sees register contents and pending write values,
//     but not pending operation locations. Probabilistic writes are safe
//     against this adversary: their coins are resolved only at execution
//     time, so no scheduler can condition on the outcome.
//   - Adaptive: sees everything that exists before the step (it still cannot
//     predict coins that have not been flipped).
//
// Schedulers are deliberately stateful: an adversary is allowed to remember
// everything it has observed.
package sched

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// Power is the information class of an adversary (§2.1).
type Power int

const (
	// Oblivious adversaries see nothing but time and liveness.
	Oblivious Power = iota + 1
	// ValueOblivious adversaries see operation types and locations.
	ValueOblivious
	// LocationOblivious adversaries see contents and pending values but not
	// locations; this is the class that admits probabilistic writes.
	LocationOblivious
	// Adaptive adversaries (the strong adversary) see everything.
	Adaptive
)

// String names the power class.
func (p Power) String() string {
	switch p {
	case Oblivious:
		return "oblivious"
	case ValueOblivious:
		return "value-oblivious"
	case LocationOblivious:
		return "location-oblivious"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("power(%d)", int(p))
	}
}

// OpKind is the type of a pending operation, as visible to adversaries that
// may distinguish operation types.
type OpKind int

const (
	// OpRead is a register read.
	OpRead OpKind = iota + 1
	// OpWrite is a deterministic register write.
	OpWrite
	// OpProbWrite is a probabilistic write (takes effect with some
	// probability resolved at execution time).
	OpProbWrite
	// OpCollect is a cheap-collect of a register array.
	OpCollect
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpProbWrite:
		return "probwrite"
	case OpCollect:
		return "collect"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op describes one pending operation, restricted to the adversary's power:
// fields the adversary may not observe are zeroed by the runtime.
type Op struct {
	// Valid is false for processes with no pending operation (halted or
	// crashed processes).
	Valid bool
	// Kind is the operation type (all powers above Oblivious).
	Kind OpKind
	// Reg is the target register; -1 when hidden (LocationOblivious) or for
	// Oblivious views.
	Reg register.Reg
	// Val is the pending write value; value.None when hidden
	// (Oblivious, ValueOblivious) or for reads.
	Val value.Value
	// ProbNum/ProbDen expose the attempt probability of a probabilistic
	// write (LocationOblivious and Adaptive; the probability is part of the
	// pending value/type, not its location).
	ProbNum, ProbDen uint64
	// InFlight marks a pending write (OpWrite/OpProbWrite) that has been
	// invoked but not yet taken effect — the window a regular register lets
	// an overlapping read exploit. Populated for ValueOblivious and
	// stronger views when the execution runs under non-atomic register
	// semantics; always false under register.Atomic, where the window is
	// unobservable by definition.
	InFlight bool
}

// Change is the one register the previous step changed, with the value it
// held before the step. A diff of two consecutive Memory snapshots shows
// exactly this, so it tells a memory-seeing adversary nothing Memory does
// not; it only spares the adversary the copy and the scan. The zero Change
// means that no register changed.
type Change struct {
	// Valid is false when the previous step changed no register: a read, a
	// collect, a failed probabilistic write, a write of the value already
	// there, or no previous step at all.
	Valid bool
	// Reg is the changed register; Memory[Reg] holds its new value.
	Reg register.Reg
	// Old is the value Reg held before the step.
	Old value.Value
}

// View is what the adversary sees when choosing the next step.
//
// Buffer-reuse contract (copy-on-escape): the View pointer, its Runnable and
// Pending slices and its index of pending operations by kind (SetPending)
// are owned by the runtime and reused on every step, and Memory is the live
// register file itself, which the next step changes — the step path neither
// allocates nor copies memory. A Scheduler may read them freely during Next
// (the index through CountPending and NextPending), but must not mutate
// them and must not retain any of them past Next's return; a strategy that
// wants history (e.g. what a register held when an attack armed) must copy
// what it needs into its own state, as concTracker does with the Old value
// of each Changed register. Whoever builds a View writes Pending only
// through SetPending, which keeps the index in step and hands out the
// entry to fill in place; a copy of a View shares its index.
type View struct {
	// Power is the information class this view was built for.
	Power Power
	// Semantics is the register consistency model of the execution. Under
	// register.Interposed the runtime additionally blunts strong views:
	// pending operation values and probabilities are hidden (the
	// linearizable implementation layer conceals in-flight contents from
	// the adversary, per Attiya–Enea–Welch), leaving only completed state
	// in Memory.
	Semantics register.Semantics
	// Step counts work-charged operations executed so far.
	Step int
	// N is the number of processes.
	N int
	// Runnable lists the pids with a pending operation, ascending.
	Runnable []int
	// Pending is indexed by pid; entries are power-restricted. Written only
	// through SetPending.
	Pending []Op
	// Memory is the register file contents (LocationOblivious, Adaptive);
	// nil otherwise. It is the live file, not a copy: the next step changes
	// it, and a protocol that allocates registers mid-run grows it.
	Memory []value.Value
	// Changed is the register the previous step changed (LocationOblivious,
	// Adaptive). It stays zero for the weaker powers, because Old is memory
	// content.
	Changed Change

	// byKind[k-1] holds the pids whose Pending entry is Valid with Kind k.
	byKind [opKinds]pidSet
}

// Scheduler chooses the next process to step. Implementations must return a
// pid drawn from view.Runnable; the runtime panics otherwise, because a
// scheduling bug would silently corrupt every measurement built on top.
type Scheduler interface {
	// Next picks the pid whose pending operation executes next.
	Next(view *View) int
	// Seed hands the scheduler its private randomness stream for this
	// execution and resets all per-execution mutable state. The runtime
	// calls it exactly once before the first Next of every execution — a
	// pooled engine reuses one Scheduler across many trials, so any history
	// a strategy accumulates (positions, step counters, attack phase) must
	// be cleared here, not in a constructor. Deterministic schedulers
	// ignore the source but still reset.
	Seed(src *xrand.Source)
	// Name identifies the strategy in reports.
	Name() string
	// MinPower returns the weakest adversary class under which this
	// strategy is implementable. The runtime builds views at exactly this
	// power, so a strategy can never accidentally exploit information its
	// class forbids.
	MinPower() Power
}
