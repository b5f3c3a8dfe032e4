package check

import (
	"fmt"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

func vals(xs ...int64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.Value(x)
	}
	return out
}

func TestAgreement(t *testing.T) {
	if err := Agreement(vals(3, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := Agreement(nil); err != nil {
		t.Fatal("empty outputs must pass")
	}
	if err := Agreement(vals(3, 4)); err == nil {
		t.Fatal("expected agreement violation")
	}
}

func TestValidity(t *testing.T) {
	if err := Validity(vals(1, 2, 3), vals(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := Validity(vals(1, 2), vals(5)); err == nil {
		t.Fatal("expected validity violation")
	}
	if err := Validity(vals(1), nil); err != nil {
		t.Fatal("empty outputs must pass")
	}
}

func TestConsensus(t *testing.T) {
	if err := Consensus(vals(0, 1), vals(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Consensus(vals(0, 1), vals(0, 1)); err == nil {
		t.Fatal("expected failure (disagreement)")
	}
	if err := Consensus(vals(0, 1), vals(2, 2)); err == nil {
		t.Fatal("expected failure (invalid)")
	}
}

// TestViolationTexts pins the text of every result-level and online
// violation, on seeded violations, so that a check can change how it looks
// values up without changing what it reports. Decisions over a mask reports
// what Consensus reports over the outputs the mask selects.
func TestViolationTexts(t *testing.T) {
	observe := func(inputs []value.Value, decisions ...[2]int64) error {
		var m Monitor
		m.Reset(vals(9)) // a reused monitor forgets its last execution
		m.Observe(0, 5)
		m.Reset(inputs)
		for _, d := range decisions {
			m.Observe(int(d[0]), value.Value(d[1]))
		}
		return m.Err()
	}
	mask := func(bs ...bool) func(int) bool { return func(pid int) bool { return bs[pid] } }
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"agreement", Agreement(vals(3, 3, 4)), "check: agreement violated: output[2]=4 but output[0]=3"},
		{"validity", Validity(vals(1, 2), vals(2, 2, 5, 2)), "check: validity violated: output[2]=5 is nobody's input [1 2]"},
		{"validity-none", Validity(vals(1, 2), []value.Value{value.None}), "check: validity violated: output[0]=⊥ is nobody's input [1 2]"},
		{"consensus-agreement", Consensus(vals(0, 1), vals(1, 1, 0)), "check: agreement violated: output[2]=0 but output[0]=1"},
		{"consensus-validity", Consensus(vals(0, 1), vals(2, 2)), "check: validity violated: output[0]=2 is nobody's input [0 1]"},
		{"decisions-agreement", Decisions(vals(0, 1), vals(1, 9, 0), mask(true, false, true)), "check: agreement violated: output[1]=0 but output[0]=1"},
		{"decisions-validity", Decisions(vals(0, 1), vals(1, 4, 4), mask(false, true, true)), "check: validity violated: output[0]=4 is nobody's input [0 1]"},
		{"decisions-none-decided", Decisions(vals(0, 1), vals(7, 8), mask(false, false)), "<nil>"},
		{"online-agreement", observe(vals(0, 1), [2]int64{3, 1}, [2]int64{5, 0}), "check: agreement violated online: process 5 decided 0 but process 3 decided 1"},
		{"online-validity", observe(vals(0, 1), [2]int64{2, 7}), "check: validity violated online: process 2 decided 7, nobody's input [0 1]"},
		{"online-first-violation-kept", observe(vals(0, 1), [2]int64{0, 7}, [2]int64{1, 0}), "check: validity violated online: process 0 decided 7, nobody's input [0 1]"},
		{"online-clean", observe(vals(0, 1), [2]int64{0, 1}, [2]int64{1, 1}), "<nil>"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(c.err); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func mkTrace(events ...trace.Event) *trace.Log {
	l := trace.New()
	for _, e := range events {
		l.Append(e)
	}
	return l
}

func inv(pid int, label string, v value.Value) trace.Event {
	return trace.Event{Step: -1, PID: pid, Kind: trace.Invoke, Label: label, Val: v}
}

func ret(pid int, label string, d bool, v value.Value) trace.Event {
	return trace.Event{Step: -1, PID: pid, Kind: trace.Return, Label: label, Decided: d, Val: v}
}

func TestObjectsValidityViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "R1", 3), ret(0, "R1", false, 4),
	)
	err := Objects(log, "")
	if err == nil || !strings.Contains(err.Error(), "validity") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectsCoherenceViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "X", 1), inv(1, "X", 2),
		ret(0, "X", true, 1), ret(1, "X", false, 2),
	)
	err := Objects(log, "")
	if err == nil || !strings.Contains(err.Error(), "coherence") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectsTwoDecisionsViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "X", 1), inv(1, "X", 2),
		ret(0, "X", true, 1), ret(1, "X", true, 2),
	)
	if err := Objects(log, ""); err == nil {
		t.Fatal("expected coherence violation")
	}
}

func TestObjectsAcceptanceViolation(t *testing.T) {
	log := mkTrace(
		inv(0, "R2", 5), inv(1, "R2", 5),
		ret(0, "R2", true, 5), ret(1, "R2", false, 5),
	)
	err := Objects(log, "R")
	if err == nil || !strings.Contains(err.Error(), "acceptance") {
		t.Fatalf("err = %v", err)
	}
	// Without the ratifier prefix, acceptance is not required.
	if err := Objects(log, ""); err != nil {
		t.Fatalf("non-ratifier check failed: %v", err)
	}
}

func TestObjectsAcceptanceNotAppliedToConciliators(t *testing.T) {
	// A conciliator ("C1") with unanimous inputs returning (0, v) is fine.
	log := mkTrace(
		inv(0, "C1", 5), inv(1, "C1", 5),
		ret(0, "C1", false, 5), ret(1, "C1", false, 5),
	)
	if err := Objects(log, "R"); err != nil {
		t.Fatal(err)
	}
}

func TestObjectsHealthyComposition(t *testing.T) {
	log := mkTrace(
		inv(0, "C1", 1), ret(0, "C1", false, 2), inv(1, "C1", 2), ret(1, "C1", false, 2),
		inv(0, "R1", 2), ret(0, "R1", true, 2), inv(1, "R1", 2), ret(1, "R1", true, 2),
	)
	if err := Objects(log, "R"); err != nil {
		t.Fatal(err)
	}
}

func TestObjectsMixedInputRatifierNoDecisionOK(t *testing.T) {
	log := mkTrace(
		inv(0, "R-1", 0), inv(1, "R-1", 1),
		ret(0, "R-1", false, 0), ret(1, "R-1", false, 0),
	)
	if err := Objects(log, "R"); err != nil {
		t.Fatal(err)
	}
}

func TestIsRatifierLabelMatching(t *testing.T) {
	cases := map[string]bool{
		"R1": true, "R-1": true, "R12": true,
		"RC1": false, "R": false, "C1": false, "Rx": false, "R-": false,
	}
	for label, want := range cases {
		if got := isRatifier(label, "R"); got != want {
			t.Errorf("isRatifier(%q) = %v, want %v", label, got, want)
		}
	}
	if !isRatifier("RC3", "RC") {
		t.Error("isRatifier(RC3, RC) = false")
	}
}

func TestIndividualWorkBound(t *testing.T) {
	if err := IndividualWorkBound([]int{1, 2, 3}, 3); err != nil {
		t.Fatal(err)
	}
	if err := IndividualWorkBound([]int{1, 5}, 4); err == nil {
		t.Fatal("expected bound violation")
	}
}

func TestUnanimous(t *testing.T) {
	if Unanimous(nil) {
		t.Fatal("empty is not unanimous")
	}
	if !Unanimous(vals(2, 2, 2)) {
		t.Fatal("all-2 is unanimous")
	}
	if Unanimous(vals(2, 3)) {
		t.Fatal("2,3 is not unanimous")
	}
}

func TestWorkAccounting(t *testing.T) {
	if err := WorkAccounting([]int{3, 0, 4}, 7); err != nil {
		t.Fatal(err)
	}
	if err := WorkAccounting(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := WorkAccounting([]int{3, 4}, 8); err == nil {
		t.Fatal("expected sum mismatch")
	}
	if err := WorkAccounting([]int{-1, 2}, 1); err == nil {
		t.Fatal("expected negative-work error")
	}
}
