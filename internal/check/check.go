// Package check verifies executions against the paper's correctness
// properties (§3): agreement, validity, coherence, acceptance, and
// probabilistic agreement (as an empirical estimate), plus work bounds.
//
// Result-level checks look only at inputs and outputs; trace-level checks
// reconstruct per-object invocations from Invoke/Return events and verify
// the weak-consensus conditions object by object — including for the
// intermediate objects of a composition, which result-level checks cannot
// see.
package check

import (
	"fmt"
	"slices"
	"sync"

	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// Monitor checks agreement and validity online, as decisions land, instead
// of post-hoc over a finished result: a violation is flagged the moment the
// offending decision is observed, even if the execution then livelocks,
// crashes, or is cancelled before a post-hoc check could run. It is safe
// for concurrent use — on the live backend decisions land from
// free-running goroutines. A session keeps one Monitor and resets it for
// each execution; a Monitor must not be copied.
type Monitor struct {
	mu      sync.Mutex
	ins     []value.Value
	decided bool
	first   value.Value
	pid     int
	err     error
}

// Reset readies the monitor for an execution with the given per-process
// inputs (the validity reference set), forgetting every decision and
// violation it observed before. The monitor reads inputs, not a copy, until
// the next Reset.
func (m *Monitor) Reset(inputs []value.Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ins, m.decided, m.first, m.pid, m.err = inputs, false, 0, 0, nil
}

// Observe records pid's decision v and checks it against the inputs
// (validity) and every previously observed decision (agreement). The first
// violation is retained and returned by Err; Observe returns it too so
// callers may react immediately. A decision equal to the first observed
// one was checked with it, so only the first decision and a disagreeing one
// are looked up among the inputs: O(n) per execution without violations.
func (m *Monitor) Observe(pid int, v value.Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.decided && v == m.first {
		return m.err
	}
	if m.err == nil && !slices.Contains(m.ins, v) {
		m.err = fmt.Errorf("check: validity violated online: process %d decided %s, nobody's input %v", pid, v, m.ins)
	}
	if m.err == nil && m.decided && v != m.first {
		m.err = fmt.Errorf("check: agreement violated online: process %d decided %s but process %d decided %s", pid, v, m.pid, m.first)
	}
	if !m.decided {
		m.decided, m.first, m.pid = true, v, pid
	}
	return m.err
}

// Err returns the first violation the monitor observed, nil if none.
func (m *Monitor) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Agreement verifies that all outputs are equal. Crashed or non-terminated
// processes should be excluded by the caller (pass Result.HaltedOutputs()).
func Agreement(outputs []value.Value) error {
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			return errAgreement(i, outputs[i], outputs[0])
		}
	}
	return nil
}

// Validity verifies that every output equals some process's input. An
// output equal to the one before it was checked with it, so a run of equal
// outputs costs one scan of the inputs.
func Validity(inputs, outputs []value.Value) error {
	for i, v := range outputs {
		if i > 0 && v == outputs[i-1] {
			continue
		}
		if !slices.Contains(inputs, v) {
			return errValidity(i, v, inputs)
		}
	}
	return nil
}

// Consensus verifies agreement and validity together for the halted
// processes of an execution.
func Consensus(inputs, haltedOutputs []value.Value) error {
	return Decisions(inputs, haltedOutputs, func(int) bool { return true })
}

// Decisions is Consensus over outputs[pid] for the pids with decided(pid),
// in pid order, without collecting those outputs: it allocates nothing
// unless it fails, and its errors index the decided outputs as Consensus
// indexes its argument. Once they all agree, only the first is looked up
// among the inputs.
func Decisions(inputs, outputs []value.Value, decided func(pid int) bool) error {
	first, k := value.None, 0
	for pid, v := range outputs {
		if !decided(pid) {
			continue
		}
		if k == 0 {
			first = v
		} else if v != first {
			return errAgreement(k, v, first)
		}
		k++
	}
	if k > 0 && !slices.Contains(inputs, first) {
		return errValidity(0, first, inputs)
	}
	return nil
}

func errAgreement(i int, v, first value.Value) error {
	return fmt.Errorf("check: agreement violated: output[%d]=%s but output[0]=%s", i, v, first)
}

func errValidity(i int, v value.Value, inputs []value.Value) error {
	return fmt.Errorf("check: validity violated: output[%d]=%s is nobody's input %v", i, v, inputs)
}

// objectRecord collects one object's observed interface from a trace.
type objectRecord struct {
	inputs  []value.Value
	outputs []value.Decision
}

// gather reconstructs per-object records from Invoke/Return events.
func gather(log *trace.Log) map[string]*objectRecord {
	objs := make(map[string]*objectRecord)
	get := func(label string) *objectRecord {
		r := objs[label]
		if r == nil {
			r = &objectRecord{}
			objs[label] = r
		}
		return r
	}
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.Invoke:
			get(e.Label).inputs = append(get(e.Label).inputs, e.Val)
		case trace.Return:
			get(e.Label).outputs = append(get(e.Label).outputs, value.Decision{Decided: e.Decided, V: e.Val})
		}
	}
	return objs
}

// Objects verifies, for every labeled object appearing in the trace, the
// three weak-consensus properties plus acceptance:
//
//   - validity: every output value is one of the object's input values;
//   - coherence: if any process output (1, v), every output is (·, v);
//   - acceptance: if all inputs equal v, every completed output is (1, v).
//
// Acceptance is only meaningful for objects the caller knows to be
// ratifiers; pass their label prefix (e.g. "R") as ratifierPrefix, or ""
// to skip acceptance.
func Objects(log *trace.Log, ratifierPrefix string) error {
	for label, rec := range gather(log) {
		if len(rec.inputs) == 0 && len(rec.outputs) == 0 {
			continue
		}
		in := make(map[value.Value]bool, len(rec.inputs))
		allEqual := true
		for _, v := range rec.inputs {
			in[v] = true
			if v != rec.inputs[0] {
				allEqual = false
			}
		}
		var decidedVal value.Value
		decided := false
		for _, d := range rec.outputs {
			if !in[d.V] {
				return fmt.Errorf("check: object %s: output %s is not among its inputs (validity)", label, d)
			}
			if d.Decided {
				if decided && d.V != decidedVal {
					return fmt.Errorf("check: object %s: two decisions %s and %s (coherence)", label, decidedVal, d.V)
				}
				decided, decidedVal = true, d.V
			}
		}
		if decided {
			for _, d := range rec.outputs {
				if d.V != decidedVal {
					return fmt.Errorf("check: object %s: decision %s but output %s (coherence)", label, decidedVal, d)
				}
			}
		}
		if ratifierPrefix != "" && isRatifier(label, ratifierPrefix) && allEqual && len(rec.inputs) > 0 {
			for _, d := range rec.outputs {
				if !d.Decided || d.V != rec.inputs[0] {
					return fmt.Errorf("check: ratifier %s: all inputs %s but output %s (acceptance)", label, rec.inputs[0], d)
				}
			}
		}
	}
	return nil
}

// isRatifier matches labels like "R3", "R-1" for prefix "R", without
// matching e.g. "RC0" collect ratifiers when the prefix is "R".
func isRatifier(label, prefix string) bool {
	if len(label) <= len(prefix) || label[:len(prefix)] != prefix {
		return false
	}
	rest := label[len(prefix):]
	if rest[0] == '-' {
		rest = rest[1:]
	}
	if rest == "" {
		return false
	}
	for _, ch := range rest {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}

// IndividualWorkBound verifies that no process exceeded the given operation
// budget.
func IndividualWorkBound(work []int, bound int) error {
	for pid, w := range work {
		if w > bound {
			return fmt.Errorf("check: process %d performed %d operations, bound %d", pid, w, bound)
		}
	}
	return nil
}

// WorkAccounting verifies the bookkeeping invariants every backend's
// Result must satisfy: per-process work is non-negative and sums exactly
// to total work. A backend that drops or double-counts operations (say,
// around a crash or cancellation boundary) fails here before any
// cost-measure comparison would.
func WorkAccounting(work []int, total int) error {
	sum := 0
	for pid, w := range work {
		if w < 0 {
			return fmt.Errorf("check: process %d has negative work %d", pid, w)
		}
		sum += w
	}
	if sum != total {
		return fmt.Errorf("check: per-process work sums to %d but total work is %d", sum, total)
	}
	return nil
}

// Unanimous reports whether all values in xs are equal (and xs is
// non-empty); it is the event whose probability a conciliator's δ bounds.
func Unanimous(xs []value.Value) bool {
	if len(xs) == 0 {
		return false
	}
	for _, v := range xs {
		if v != xs[0] {
			return false
		}
	}
	return true
}
