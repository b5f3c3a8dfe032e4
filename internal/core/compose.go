package core

import (
	"strings"
	"sync"

	"github.com/modular-consensus/modcon/internal/value"
)

// Composition is the sequential composition (X₁; X₂; …; Xₖ) of deciding
// objects (§3.2, Procedure Composition): each process feeds its value
// through the objects in order, and a decision by any object terminates the
// composite immediately with that output — the "exception mechanism" of the
// paper. Composition is associative, so the flat list is fully general.
//
// By Lemmas 1–3 and Corollary 4, if every component is a weak consensus
// object then so is the composition.
type Composition struct {
	objs []Object

	labelOnce sync.Once
	label     string // "(label₁; label₂; …)", formatted on first use
}

// Compose builds the composition (objs[0]; objs[1]; …). Nested Compositions
// are flattened (associativity makes this behavior-preserving).
func Compose(objs ...Object) *Composition {
	var flat []Object
	for _, o := range objs {
		if c, ok := o.(*Composition); ok {
			flat = append(flat, c.objs...)
			continue
		}
		flat = append(flat, o)
	}
	return &Composition{objs: flat}
}

// Len returns the number of component objects.
func (c *Composition) Len() int { return len(c.objs) }

// At returns the i-th component.
func (c *Composition) At(i int) Object { return c.objs[i] }

// Invoke implements Object.
func (c *Composition) Invoke(e Env, v value.Value) value.Decision {
	d, _ := c.InvokeIndexed(e, v)
	return d
}

// InvokeIndexed runs the composition and additionally reports the index of
// the component that produced the decision, or -1 if the chain was exhausted
// without a decision (the result is then (0, v) for the final carried v).
func (c *Composition) InvokeIndexed(e Env, v value.Value) (value.Decision, int) {
	for i, o := range c.objs {
		e.MarkInvoke(o.Label(), v)
		d := o.Invoke(e, v)
		e.MarkReturn(o.Label(), d)
		if d.Decided {
			return d, i
		}
		v = d.V
	}
	return value.Continue(v), -1
}

// Label implements Object. It joins the components' labels on the first
// call, so building a long chain formats no composite label.
func (c *Composition) Label() string {
	c.labelOnce.Do(func() {
		labels := make([]string, len(c.objs))
		for i, o := range c.objs {
			labels[i] = o.Label()
		}
		c.label = "(" + strings.Join(labels, "; ") + ")"
	})
	return c.label
}
