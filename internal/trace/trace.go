// Package trace records executions of the simulated shared-memory system.
//
// An execution in the paper's model (§2) is a sequence of operations and
// their return values. The simulator appends one Event per shared-memory
// operation it executes, plus bracketing events for object invocations and
// local coin flips, so that correctness checkers (internal/check) and humans
// (cmd/modcon-trace) can reconstruct exactly what happened.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"github.com/modular-consensus/modcon/internal/value"
)

// Kind enumerates event types.
type Kind int

const (
	// Read is an atomic register read.
	Read Kind = iota + 1
	// Write is an atomic register write.
	Write
	// ProbWrite is a probabilistic write attempt (the probabilistic-write
	// model of §2.1); Succeeded records the runtime's coin.
	ProbWrite
	// Collect is a cheap-collect of a register array (§6.2, choice 4).
	Collect
	// Coin is a local coin flip (free, invisible to weak adversaries).
	Coin
	// Invoke marks a process starting an operation on a deciding object.
	Invoke
	// Return marks a process finishing an operation on a deciding object.
	Return
	// Halt marks a process finishing its program with a final decision.
	Halt
	// Crash marks the adversary permanently de-scheduling a process.
	Crash
)

// String returns the event kind mnemonic.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case ProbWrite:
		return "probwrite"
	case Collect:
		return "collect"
	case Coin:
		return "coin"
	case Invoke:
		return "invoke"
	case Return:
		return "return"
	case Halt:
		return "halt"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one entry of an execution.
type Event struct {
	// Step is the index of this event among *work-counted* operations, or
	// -1 for free events (coins, invoke/return/halt markers).
	Step int
	// PID is the process that performed the event.
	PID int
	// Kind is the event type.
	Kind Kind
	// Reg is the register touched (first register for Collect), or -1.
	Reg int
	// Val is the value written, read, or (for Coin) the raw coin output;
	// for Invoke/Return/Halt it is the argument or result value.
	Val value.Value
	// Succeeded reports whether a ProbWrite took effect.
	Succeeded bool
	// ProbNum/ProbDen give the attempted write probability for ProbWrite.
	ProbNum, ProbDen uint64
	// Decided carries the decision bit for Return/Halt events.
	Decided bool
	// Label is the name of the object for Invoke/Return events.
	Label string
}

// String renders the event in a compact, human-readable form.
func (e Event) String() string {
	var b strings.Builder
	if e.Step >= 0 {
		fmt.Fprintf(&b, "%6d ", e.Step)
	} else {
		b.WriteString("     - ")
	}
	fmt.Fprintf(&b, "p%-3d %-9s", e.PID, e.Kind)
	switch e.Kind {
	case Read:
		fmt.Fprintf(&b, " r%-4d -> %s", e.Reg, e.Val)
	case Write:
		fmt.Fprintf(&b, " r%-4d <- %s", e.Reg, e.Val)
	case ProbWrite:
		status := "miss"
		if e.Succeeded {
			status = "hit"
		}
		fmt.Fprintf(&b, " r%-4d <- %s p=%d/%d %s", e.Reg, e.Val, e.ProbNum, e.ProbDen, status)
	case Collect:
		fmt.Fprintf(&b, " r%d..", e.Reg)
	case Coin:
		fmt.Fprintf(&b, " -> %d", int64(e.Val))
	case Invoke:
		fmt.Fprintf(&b, " %s(%s)", e.Label, e.Val)
	case Return:
		bit := 0
		if e.Decided {
			bit = 1
		}
		fmt.Fprintf(&b, " %s -> (%d, %s)", e.Label, bit, e.Val)
	case Halt:
		fmt.Fprintf(&b, " decide %s", e.Val)
	}
	return b.String()
}

// Log is an append-only execution record. A nil *Log is valid and discards
// everything, so the hot path of untraced runs stays allocation-free.
//
// Log is safe for concurrent appends: while the simulated runtime executes
// shared-memory operations one at a time, processes emit Invoke/Coin
// annotations from their own goroutines, and at the start of an execution
// (before any operation has been scheduled) those calls genuinely overlap.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append adds an event. Append on a nil log is a no-op.
func (l *Log) Append(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Reset discards the recorded events, keeping the backing capacity, so one
// log can serve many executions of a pooled session without reallocating.
// Reset on a nil log is a no-op. Call it only between executions.
func (l *Log) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = l.events[:0]
	l.mu.Unlock()
}

// Clone returns an independent copy of the log. Pooled sweeps hand the copy
// to the merge step so the session can Reset its own log for the next trial.
// A nil log clones to nil.
func (l *Log) Clone() *Log {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := &Log{events: make([]Event, len(l.events))}
	copy(cp.events, l.events)
	return cp
}

// Take moves the recorded events into a new log and leaves l empty, with no
// backing array: a session that runs again hands its record to the caller
// without a copy, and its next execution records into new storage. A nil
// log takes to nil. Call it only between executions.
func (l *Log) Take() *Log {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := &Log{events: l.events}
	l.events = nil
	return cp
}

// Events returns the recorded events. The slice is owned by the log and
// must not be mutated; read it only after the execution has completed.
// A nil log returns nil.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Filter returns the events satisfying keep, in order.
func (l *Log) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range l.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// String renders the whole log, one event per line.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
