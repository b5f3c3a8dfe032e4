// Package conciliator implements the paper's conciliator objects (§5):
// weak consensus objects that produce agreement with constant probability δ
// under any allowed adversary, always returning decision bit 0 (coherence
// holds vacuously).
//
// Three constructions are provided:
//
//   - Impatient: the paper's new ImpatientFirstMoverConciliator for the
//     probabilistic-write model (Theorem 7) — one multi-writer register,
//     O(log n) individual work, O(n) expected total work, δ ≥ (1-e^{-1/4})/4,
//     for arbitrarily many values.
//   - The constant-rate variant (growth GrowthConstant) — the
//     Chor–Israeli–Li / Cheung baseline with Θ(1/n) write probability and
//     Θ(n) individual work, which the paper improves on.
//   - FromCoin: the classic weak-shared-coin construction (§5.1, Theorem 6),
//     2-valued, with validity enforced by two extra registers.
package conciliator

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// Growth selects how a process's write probability evolves with its attempt
// count k. The paper's algorithm doubles (processes "become impatient");
// the alternatives exist as baselines and ablations.
type Growth int

const (
	// GrowthDoubling writes with probability min(1, 2^k/n) — the paper's
	// ImpatientFirstMoverConciliator (§5.2).
	GrowthDoubling Growth = iota + 1
	// GrowthConstant writes with probability 1/n forever — the classic
	// Chor–Israeli–Li [20] / Cheung [19] first-mover scheme. Θ(n)
	// individual work.
	GrowthConstant
	// GrowthLinear writes with probability min(1, (k+1)/n) — an ablation
	// between the two: O(√(n)) attempts... in fact Θ(√n) individual work,
	// since Σ(k+1)/n reaches 1 after ~√(2n) attempts.
	GrowthLinear
)

// String names the growth schedule.
func (g Growth) String() string {
	switch g {
	case GrowthDoubling:
		return "doubling"
	case GrowthConstant:
		return "constant"
	case GrowthLinear:
		return "linear"
	default:
		return fmt.Sprintf("growth(%d)", int(g))
	}
}

// Impatient is a first-mover conciliator over a single multi-writer
// register: processes loop reading the register and, while it is empty,
// attempt probabilistic writes of their own value with growing probability;
// whoever's write lands first "wins" unless a straggler's pending write
// overwrites it. Implements Procedure ImpatientFirstMoverConciliator of the
// paper when Growth is GrowthDoubling.
type Impatient struct {
	r     register.Reg
	n     int
	label string

	// Growth is the impatience schedule (default GrowthDoubling).
	Growth Growth
	// DetectSuccess, when true, lets a process return immediately after a
	// probabilistic write it observes to have succeeded, saving 2
	// operations (footnote 2 of the paper). The paper's cost analysis
	// assumes this is off.
	DetectSuccess bool
}

var _ core.Object = (*Impatient)(nil)

// NewImpatient allocates the conciliator's single register in mem — any
// register allocator, i.e. a *register.File under any consistency model —
// for a system of n processes. index names the instance (Cᵢ).
func NewImpatient(mem register.Allocator, n, index int) *Impatient {
	var names register.Names
	c := new(Impatient)
	c.Init(mem, n, index, &names)
	return c
}

// registerSuffix ends the name of an Impatient's register; its label is "C"
// and its index.
const registerSuffix = ".r"

// Init lays c out in mem as NewImpatient does, formatting its label and
// register name into names (ImpatientNameBytes(index) bytes). Code that
// lays out a long chain calls it on one slab of Impatients that share one
// names buffer.
func (c *Impatient) Init(mem register.Allocator, n, index int, names *register.Names) {
	if n <= 0 {
		panic(fmt.Sprintf("conciliator: n=%d must be positive", n))
	}
	name := names.Format("C", index, registerSuffix)
	*c = Impatient{
		r:      mem.Alloc1(name),
		n:      n,
		label:  name[:len(name)-len(registerSuffix)],
		Growth: GrowthDoubling,
	}
}

// ImpatientNameBytes returns the number of bytes (*Impatient).Init formats
// into its names buffer for instance index: its register's name, which
// begins with its label.
func ImpatientNameBytes(index int) int { return register.NameLen("C", index, registerSuffix) }

// Invoke implements core.Object.
//
//	k ← 0
//	while r = ⊥ do
//	    write v to r with probability 2^k/n
//	    k ← k+1
//	end
//	return (0, r)
//
// The loop's read doubles as the final read of r, so each iteration costs
// exactly 2 operations and the individual work is 2 lg n + O(1) for the
// doubling schedule (Theorem 7).
func (c *Impatient) Invoke(e core.Env, v value.Value) value.Decision {
	if v.IsNone() {
		panic("conciliator: ⊥ is not a legal input")
	}
	for k := 0; ; k++ {
		u := e.Read(c.r)
		if !u.IsNone() {
			return value.Continue(u)
		}
		num := c.probNum(k)
		if e.ProbWrite(c.r, v, num, uint64(c.n)) && c.DetectSuccess {
			return value.Continue(v)
		}
	}
}

// probNum returns the numerator of the k-th attempt probability (the
// denominator is always n), capped so num/den never exceeds 1.
func (c *Impatient) probNum(k int) uint64 {
	n := uint64(c.n)
	switch c.Growth {
	case GrowthConstant:
		return 1
	case GrowthLinear:
		num := uint64(k) + 1
		if num > n {
			return n
		}
		return num
	case GrowthDoubling, 0:
		if k >= 63 {
			return n
		}
		num := uint64(1) << uint(k)
		if num > n {
			return n
		}
		return num
	default:
		panic(fmt.Sprintf("conciliator: unknown growth %v", c.Growth))
	}
}

// MaxIndividualWork bounds the operations any single process can perform:
// the attempt probability reaches 1 after kMax attempts, the next read must
// observe a non-⊥ value, and each attempt costs 2 operations plus the final
// read. The constant-rate baseline has no deterministic bound (only an
// expected Θ(n) one), reported as -1.
func (c *Impatient) MaxIndividualWork() int {
	if c.Growth == GrowthConstant && c.n > 1 {
		return -1
	}
	k := 0
	for c.probNum(k) < uint64(c.n) {
		k++
	}
	// Attempts 0..k all may execute (2 ops each), then one more read.
	return 2*(k+1) + 1
}

// Label implements core.Object.
func (c *Impatient) Label() string { return c.label }

// NewConstantRate returns the Chor–Israeli–Li / Cheung baseline: identical
// to Impatient but with a fixed 1/n write probability.
func NewConstantRate(mem register.Allocator, n, index int) *Impatient {
	c := NewImpatient(mem, n, index)
	c.Growth = GrowthConstant
	return c
}
