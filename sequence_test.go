package modcon

import (
	"errors"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/sim"
)

func TestSolveSequence(t *testing.T) {
	cons, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	proposals := [][]Value{
		{1, 2, 3, 4},
		{5, 5, 5, 5},
		{7, 0, 7, 0},
	}
	out, err := cons.SolveSequence(proposals, NewFirstMoverAttack(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Agreed) != 3 {
		t.Fatalf("agreed %v", out.Agreed)
	}
	if out.Agreed[1] != 5 {
		t.Fatalf("unanimous slot agreed %s", out.Agreed[1])
	}
	for slot := range out.Outputs {
		for pid, v := range out.Outputs[slot] {
			if v != out.Agreed[slot] {
				t.Fatalf("slot %d pid %d: %s != %s", slot, pid, v, out.Agreed[slot])
			}
		}
	}
	if out.TotalWork <= 0 {
		t.Fatal("no work recorded")
	}
}

func TestSolveSequenceBroadcastProposals(t *testing.T) {
	cons, err := NewBinary(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.SolveSequence([][]Value{{1}, {0}}, NewUniformRandom(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Agreed[0] != 1 || out.Agreed[1] != 0 {
		t.Fatalf("agreed %v", out.Agreed)
	}
}

func TestSolveSequenceValidation(t *testing.T) {
	cons, err := NewBinary(2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cons.SolveSequence([][]Value{{0, 9}}, NewRoundRobin(), 1)
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("err = %v", err)
	}
	if _, err := cons.SolveSequence(nil, NewRoundRobin(), 1); err == nil {
		t.Fatal("expected error for no slots")
	}
}

func TestSolveSequenceCrashes(t *testing.T) {
	cons, err := NewBinary(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.SolveSequence([][]Value{{0, 1, 0}, {1, 0, 1}}, NewUniformRandom(), 4,
		RunConfig{CrashAfter: map[int]int{0: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Crashed[0] {
		t.Fatal("crash not applied")
	}
	for slot := range out.Outputs {
		if out.Outputs[slot][1].IsNone() || out.Outputs[slot][2].IsNone() {
			t.Fatalf("survivor undecided in slot %d", slot)
		}
	}
}

// TestSolveSequenceRunConfig: SolveSequence takes at most one RunConfig,
// validates it like Solve, and rejects what a sequence cannot honour instead
// of running an atomic, untraced sim execution in its place.
func TestSolveSequenceRunConfig(t *testing.T) {
	cons, err := NewBinary(3)
	if err != nil {
		t.Fatal(err)
	}
	proposals := [][]Value{{0, 1, 0}, {1}}
	for _, tc := range []struct {
		name string
		s    Scheduler
		run  []RunConfig
		want error // nil: the sequence must succeed
		msg  string
	}{
		{name: "zero", s: NewUniformRandom(), run: []RunConfig{{}}},
		{name: "power-cap-met", s: NewFirstMoverAttack(), run: []RunConfig{{Power: Adaptive}}},
		{name: "step-limit", s: NewUniformRandom(), run: []RunConfig{{MaxSteps: 1}}, want: sim.ErrStepLimit},
		{name: "two-configs", s: NewUniformRandom(), run: []RunConfig{{MaxSteps: 1}, {MaxSteps: 1}}, msg: "at most one RunConfig"},
		{name: "live-with-scheduler", s: NewUniformRandom(), run: []RunConfig{{Backend: Live}}, want: ErrOptionUnsupported},
		{name: "live", run: []RunConfig{{Backend: Live}}, want: ErrOptionUnsupported},
		{name: "unknown-backend", s: NewUniformRandom(), run: []RunConfig{{Backend: Backend(9)}}, want: ErrBadOption},
		{name: "traced", s: NewUniformRandom(), run: []RunConfig{{Traced: true}}, want: ErrOptionUnsupported},
		{name: "cheap-collect", s: NewUniformRandom(), run: []RunConfig{{CheapCollect: true}}, want: ErrOptionUnsupported},
		{name: "regular", s: NewUniformRandom(), run: []RunConfig{{Registers: Regular}}, want: ErrOptionUnsupported},
		{name: "interposed", s: NewUniformRandom(), run: []RunConfig{{Registers: Interposed}}, want: ErrOptionUnsupported},
		{name: "unknown-registers", s: NewUniformRandom(), run: []RunConfig{{Registers: RegisterModel(9)}}, want: ErrBadOption},
		{name: "power-cap-exceeded", s: NewFirstMoverAttack(), run: []RunConfig{{Power: Oblivious}}, want: ErrBadOption},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cons.SolveSequence(proposals, tc.s, 7, tc.run...)
			switch {
			case tc.want == nil && tc.msg == "":
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
			case tc.msg != "":
				if err == nil || !strings.Contains(err.Error(), tc.msg) {
					t.Fatalf("err = %v, want one containing %q", err, tc.msg)
				}
			case !errors.Is(err, tc.want):
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
