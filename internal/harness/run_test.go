package harness

import (
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

func TestRunObjectRecordsDecisions(t *testing.T) {
	file := register.NewFile()
	r := ratifier.NewBinary(file, 1)
	run, err := RunObject(r, ObjectConfig{
		N: 3, File: file, Inputs: []value.Value{1}, Scheduler: sched.NewRoundRobin(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range run.Decisions {
		if !d.Decided || d.V != 1 {
			t.Fatalf("pid %d decision %s", pid, d)
		}
	}
	if got := run.Outputs(); len(got) != 3 {
		t.Fatalf("outputs %v", got)
	}
}

func TestRunObjectSingleInputReplication(t *testing.T) {
	file := register.NewFile()
	r := ratifier.NewBinary(file, 1)
	if _, err := RunObject(r, ObjectConfig{
		N: 4, File: file, Inputs: []value.Value{0}, Scheduler: sched.NewRoundRobin(),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunObjectInputCountValidation(t *testing.T) {
	file := register.NewFile()
	r := ratifier.NewBinary(file, 1)
	_, err := RunObject(r, ObjectConfig{
		N: 3, File: file, Inputs: []value.Value{0, 1}, Scheduler: sched.NewRoundRobin(),
	})
	if err == nil || !strings.Contains(err.Error(), "inputs") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunObjectTrace(t *testing.T) {
	file := register.NewFile()
	r := ratifier.NewBinary(file, 1)
	run, err := RunObject(r, ObjectConfig{
		N: 2, File: file, Inputs: []value.Value{0, 1}, Scheduler: sched.NewRoundRobin(), Traced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace == nil || run.Trace.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	invokes := run.Trace.Filter(func(e trace.Event) bool { return e.Kind == trace.Invoke })
	if len(invokes) != 2 {
		t.Fatalf("invoke events: %d", len(invokes))
	}
}

func TestRunObjectCrashedProcessHasNoDecision(t *testing.T) {
	file := register.NewFile()
	r := ratifier.NewBinary(file, 1)
	run, err := RunObject(r, ObjectConfig{
		N: 2, File: file, Inputs: []value.Value{0, 1}, Scheduler: sched.NewRoundRobin(),
		CrashAfter: map[int]int{1: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Decisions[1].Decided || !run.Decisions[1].V.IsNone() {
		t.Fatalf("crashed process decision %s", run.Decisions[1])
	}
	if len(run.Outputs()) != 1 {
		t.Fatalf("outputs %v", run.Outputs())
	}
}

func TestRunProtocol(t *testing.T) {
	file := register.NewFile()
	proto, err := core.NewProtocol(core.Options{
		N: 3, File: file,
		NewRatifier: func(f *register.File, i int) core.Object { return ratifier.NewBinary(f, i) },
		FastPath:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunProtocol(proto, ObjectConfig{
		N: 3, File: file, Inputs: []value.Value{1}, Scheduler: sched.NewRoundRobin(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, d := range run.Decided {
		if !d {
			t.Fatalf("pid %d undecided", pid)
		}
	}
	outs := run.DecidedOutputs()
	if len(outs) != 3 || outs[0] != 1 {
		t.Fatalf("outputs %v", outs)
	}
}

func TestRunProtocolUndecidedExcluded(t *testing.T) {
	// A ratifier-only chain with conflicting inputs under lockstep cannot
	// decide; DecidedOutputs must be empty rather than lying.
	file := register.NewFile()
	proto, err := core.NewProtocol(core.Options{
		N: 2, File: file,
		NewRatifier: func(f *register.File, i int) core.Object { return ratifier.NewBinary(f, i) },
		Stages:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunProtocol(proto, ObjectConfig{
		N: 2, File: file, Inputs: []value.Value{0, 1}, Scheduler: sched.NewLaggard(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.DecidedOutputs()) != 0 {
		t.Fatalf("lockstep ratifier-only run decided: %v", run.DecidedOutputs())
	}
}

// TestCheckDecisions seeds violations into hand-made runs: CheckDecisions
// judges exactly the processes that decided and halted, and its error text
// is check.Consensus's over DecidedOutputs in every case.
func TestCheckDecisions(t *testing.T) {
	vs := func(xs ...int64) []value.Value {
		out := make([]value.Value, len(xs))
		for i, x := range xs {
			out[i] = value.Value(x)
		}
		return out
	}
	cases := []struct {
		name    string
		inputs  []value.Value
		outputs []value.Value
		decided []bool
		halted  []bool
		want    string // error substring; "" for none
	}{
		{"safe", vs(0, 1, 0), vs(1, 1, 1), []bool{true, true, true}, []bool{true, true, true}, ""},
		{"agreement", vs(0, 1, 0), vs(0, 1, 0), []bool{true, true, true}, []bool{true, true, true}, "agreement violated: output[1]=1"},
		{"agreement past an excluded process", vs(0, 1, 0), vs(0, 0, 1), []bool{true, false, true}, []bool{true, true, true}, "agreement violated: output[1]=1"},
		{"validity", vs(0, 0, 0), vs(1, 1, 1), []bool{true, true, true}, []bool{true, true, true}, "validity violated: output[0]=1"},
		{"decided but crashed before halting", vs(0, 1, 0), vs(0, 1, 0), []bool{true, true, true}, []bool{true, false, true}, ""},
		{"halted undecided", vs(0, 1, 0), vs(1, 0, 1), []bool{true, false, true}, []bool{true, true, true}, ""},
		{"nobody decided", vs(0, 1), vs(2, 3), []bool{false, false}, []bool{true, false}, ""},
		{"broadcast input", vs(1), vs(1, 1, 1), []bool{true, true, true}, []bool{true, true, true}, ""},
		{"broadcast input, validity", vs(0), vs(1, 1, 1), []bool{true, true, true}, []bool{true, true, true}, "validity violated: output[0]=1 is nobody's input [0]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := &ProtocolRun{
				Result:  &exec.Result{Outputs: c.outputs, Halted: c.halted},
				Decided: c.decided,
			}
			got := run.CheckDecisions(c.inputs)
			want := check.Consensus(c.inputs, run.DecidedOutputs())
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("CheckDecisions = %v, check.Consensus = %v", got, want)
			}
			if c.want == "" && got != nil {
				t.Fatalf("unexpected violation: %v", got)
			}
			if c.want != "" && (got == nil || !strings.Contains(got.Error(), c.want)) {
				t.Fatalf("CheckDecisions = %v, want a violation containing %q", got, c.want)
			}
		})
	}
}
