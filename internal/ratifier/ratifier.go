// Package ratifier implements the paper's deterministic ratifiers (§6):
// weak consensus objects that detect agreement. A ratifier satisfies
// validity, termination, coherence, and acceptance (all-equal inputs force
// everyone to decide), and by Theorem 8 the follow-the-leader construction
// below has all four whenever its quorum system satisfies
// W_v ∩ R_u = ∅ ⇔ v = u.
package ratifier

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/quorum"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// Quorum is Procedure Ratifier instantiated with a quorum scheme:
//
//	foreach r_i ∈ W_v do r_i ← 1            // announce v
//	u ← proposal
//	if u ≠ ⊥ then preference ← u            // adopt earlier proposal
//	else preference ← v; proposal ← v       // or propose own value
//	if r_i ≠ 0 for some r_i ∈ R_preference  // conflicting announcement?
//	then return (0, preference)
//	else return (1, preference)
//
// Individual work is |W_v| + |R_pref| + 2 ≤ poolsize + 2 operations; space
// is poolsize + 1 registers. With the binary scheme that is 4 operations and
// 3 registers; with the bit-vector scheme 2⌈lg m⌉+2 and 2⌈lg m⌉+1; with the
// optimal pool scheme lg m + Θ(log log m) of each (Theorem 10).
type Quorum struct {
	scheme   quorum.Scheme
	pool     register.Array
	proposal register.Reg
	label    string
}

var _ core.Object = (*Quorum)(nil)

// New allocates a ratifier over the given quorum scheme. index names the
// instance (Rᵢ; the fast-path instances are R₋₁ and R₀).
func New(file *register.File, scheme quorum.Scheme, index int) *Quorum {
	label := fmt.Sprintf("R%d", index)
	r := &Quorum{
		scheme:   scheme,
		pool:     file.Alloc(scheme.PoolSize(), label+".pool"),
		proposal: file.Alloc1(label + ".proposal"),
		label:    label,
	}
	// Announcement registers start at 0 ("binary registers r_i, initially 0").
	for i := 0; i < r.pool.Len; i++ {
		file.Init(r.pool.At(i), 0)
	}
	return r
}

// NewBinary allocates the 3-register binary ratifier (§6.2 choice 1).
func NewBinary(file *register.File, index int) *Quorum {
	return New(file, quorum.Binary{}, index)
}

// NewPool allocates the Bollobás-optimal m-valued ratifier (§6.2 choice 2).
func NewPool(file *register.File, m, index int) *Quorum {
	return New(file, quorum.NewPool(m), index)
}

// NewAuto allocates the m-valued ratifier the paper recommends: the binary
// scheme for m = 2 and the Bollobás-optimal pool scheme otherwise.
func NewAuto(file *register.File, m, index int) *Quorum {
	if m == 2 {
		return NewBinary(file, index)
	}
	return NewPool(file, m, index)
}

// NewBitVector allocates the bit-vector m-valued ratifier (§6.2 choice 3).
func NewBitVector(file *register.File, m, index int) *Quorum {
	return New(file, quorum.NewBitVector(m), index)
}

// Invoke implements core.Object.
func (r *Quorum) Invoke(e core.Env, v value.Value) value.Decision {
	// Announce v.
	for _, i := range r.scheme.WriteQuorum(v) {
		e.Write(r.pool.At(i), 1)
	}
	// Adopt or propose.
	pref := v
	if u := e.Read(r.proposal); !u.IsNone() {
		pref = u
	} else {
		e.Write(r.proposal, v)
	}
	// Look for conflicting announcements.
	for _, i := range r.scheme.ReadQuorum(pref) {
		if e.Read(r.pool.At(i)) != 0 {
			return value.Continue(pref)
		}
	}
	return value.Decide(pref)
}

// MaxIndividualWork bounds per-process operations: |W| writes, 1 read and
// up to 1 write of the proposal, |R| reads.
func (r *Quorum) MaxIndividualWork() int {
	// All schemes here have |W_v| and |R_v| independent of v; measure at 0.
	return len(r.scheme.WriteQuorum(0)) + len(r.scheme.ReadQuorum(0)) + 2
}

// Registers returns the total register count (pool + proposal).
func (r *Quorum) Registers() int { return r.pool.Len + 1 }

// Scheme exposes the quorum scheme.
func (r *Quorum) Scheme() quorum.Scheme { return r.scheme }

// Label implements core.Object.
func (r *Quorum) Label() string { return r.label }

// Collect is the cheap-collect ratifier (§6.2 choice 4): each process
// announces its value in its own register and detects conflicts with a
// single collect, for 4 operations of individual work regardless of m —
// provided the model charges O(1) for reading the n-register announcement
// array.
type Collect struct {
	announce register.Array // announce.At(pid) holds pid's announced value
	proposal register.Reg
	label    string
}

var _ core.Object = (*Collect)(nil)

// NewCollect allocates the cheap-collect ratifier for n processes.
func NewCollect(file *register.File, n, index int) *Collect {
	if n <= 0 {
		panic(fmt.Sprintf("ratifier: n=%d must be positive", n))
	}
	label := fmt.Sprintf("RC%d", index)
	return &Collect{
		announce: file.Alloc(n, label+".announce"),
		proposal: file.Alloc1(label + ".proposal"),
		label:    label,
	}
}

// Invoke implements core.Object.
func (r *Collect) Invoke(e core.Env, v value.Value) value.Decision {
	e.Write(r.announce.At(e.PID()), v)
	pref := v
	if u := e.Read(r.proposal); !u.IsNone() {
		pref = u
	} else {
		e.Write(r.proposal, v)
	}
	for _, a := range e.Collect(r.announce) {
		if !a.IsNone() && a != pref {
			return value.Continue(pref)
		}
	}
	return value.Decide(pref)
}

// Label implements core.Object.
func (r *Collect) Label() string { return r.label }
