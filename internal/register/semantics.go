package register

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/textspec"
	"github.com/modular-consensus/modcon/internal/value"
)

// Semantics selects the consistency model a register file provides to the
// processes reading and writing it. The paper's model (§2) assumes Atomic;
// the two weaker/stronger variants come from the retrieved follow-up work:
// regular registers from Hadzilacos–Hu–Toueg (Randomized Consensus with
// Regular Registers) and interposed linearizable implementations from
// Attiya–Enea–Welch (Blunting an Adversary Against Randomized Concurrent
// Programs with Linearizable Implementations).
//
// The zero value is Atomic, so every pre-existing configuration keeps its
// exact behavior without spelling anything out.
type Semantics int

const (
	// Atomic registers return the last value written; reads and writes are
	// totally ordered by the schedule. This is the paper's base model and
	// the default everywhere.
	Atomic Semantics = iota
	// Regular registers allow a read that overlaps a write to return either
	// the old or the new value. The runtime resolves each overlapping read
	// deterministically from the schedule plus a dedicated RNG stream, so
	// trials stay reproducible bit for bit.
	Regular
	// Interposed registers are atomic registers reached through a
	// linearizable implementation layer. Following Attiya–Enea–Welch, the
	// interposition blunts a strong adversary: it can no longer observe the
	// contents of operations that are in flight inside the implementation,
	// only completed state. Reads return the same values Atomic would.
	Interposed
)

// String names the model as used in flags, manifests, and trace strings.
func (s Semantics) String() string {
	switch s {
	case Atomic:
		return "atomic"
	case Regular:
		return "regular"
	case Interposed:
		return "interposed"
	default:
		return fmt.Sprintf("semantics(%d)", int(s))
	}
}

// ParseSemantics maps a flag/manifest string back to its model; the empty
// string is Atomic.
func ParseSemantics(s string) (Semantics, error) {
	if s == "" {
		return Atomic, nil
	}
	m, ok := textspec.Lookup(s, Atomic, Interposed)
	if !ok {
		return Atomic, fmt.Errorf("register: unknown semantics %q (atomic, regular, or interposed)", s)
	}
	return m, nil
}

// SemanticsSet is a bitmask of supported register models, reported by each
// execution backend in its capabilities.
type SemanticsSet uint8

// SetOf builds a SemanticsSet from the given models.
func SetOf(models ...Semantics) SemanticsSet {
	var set SemanticsSet
	for _, m := range models {
		set |= 1 << uint(m)
	}
	return set
}

// Has reports whether the set contains the model.
func (s SemanticsSet) Has(m Semantics) bool {
	return s&(1<<uint(m)) != 0
}

// Allocator is the layout-time face of a register file: the subset of File
// that objects use at construction to claim registers and set initial
// values. Objects take an Allocator instead of a *File so they are
// indifferent to which semantics the file will run under — the model is an
// execution-time property, chosen per run, not baked into the object.
type Allocator interface {
	// Alloc allocates n fresh registers initialized to ⊥.
	Alloc(n int, name string) Array
	// Alloc1 allocates a single register.
	Alloc1(name string) Reg
	// Init sets the initial value of a register before any execution.
	Init(r Reg, v value.Value)
}

// A File is an Allocator under every semantics model.
var _ Allocator = (*File)(nil)
