// Package adoptcommit exposes the paper's ratifiers under the interface
// that later literature standardized as the *adopt-commit object* (Gafni's
// terminology; Aspnes's own subsequent papers identify ratifiers with
// adopt-commit objects). It is a thin, semantics-preserving facade over
// internal/ratifier for downstream users who think in adopt-commit terms:
//
//   - Propose(v) returns (Commit, v') or (Adopt, v').
//   - Agreement/coherence: if any process gets (Commit, v), every process
//     gets (·, v).
//   - Convergence/acceptance: if all processes propose the same v, every
//     process gets (Commit, v).
//   - Validity: v' is some process's proposal.
//
// The classic recipe "consensus = adopt-commit objects + coin-flip rounds"
// is exactly the paper's conciliator/ratifier chain with the roles renamed.
package adoptcommit

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// Status is the adopt-commit outcome flag.
type Status int

const (
	// Adopt means: take this value forward, agreement not yet certain.
	Adopt Status = iota + 1
	// Commit means: decide this value, everyone else is coherent with it.
	Commit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Adopt:
		return "adopt"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Object is a one-shot m-valued adopt-commit object over atomic registers,
// using lg m + Θ(log log m) registers and operations (Theorem 10).
type Object struct {
	r *ratifier.Quorum
}

// New allocates an adopt-commit object for values 0..m-1. index labels the
// instance in traces.
func New(file *register.File, m, index int) *Object {
	return &Object{r: ratifier.NewAuto(file, m, index)}
}

// Propose runs the calling process's single operation.
func (o *Object) Propose(e core.Env, v value.Value) (Status, value.Value) {
	d := o.r.Invoke(e, v)
	if d.Decided {
		return Commit, d.V
	}
	return Adopt, d.V
}

// Registers returns the object's register count.
func (o *Object) Registers() int { return o.r.Registers() }

// AsDeciding adapts the object back to the deciding-object interface
// (Commit ↦ decision bit 1), so it can be composed with conciliators.
func (o *Object) AsDeciding() core.Object { return o.r }
