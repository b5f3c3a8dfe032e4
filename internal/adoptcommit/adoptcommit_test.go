package adoptcommit

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/modelcheck"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

type outcome struct {
	status Status
	v      value.Value
}

func propose(t *testing.T, m, n int, inputs []value.Value, s sched.Scheduler, seed uint64) []outcome {
	t.Helper()
	file := register.NewFile()
	obj := New(file, m, 1)
	outs := make([]outcome, n)
	_, err := harness.RunProgram(func(e core.Env) value.Value {
		st, v := obj.Propose(e, inputs[e.PID()])
		outs[e.PID()] = outcome{st, v}
		return v
	}, harness.ObjectConfig{N: n, File: file, Scheduler: s, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestConvergence(t *testing.T) {
	// All propose v ⇒ all (Commit, v), for both register layouts.
	for _, m := range []int{2, 5} {
		for v := 0; v < m; v++ {
			outs := propose(t, m, 3, []value.Value{value.Value(v), value.Value(v), value.Value(v)},
				sched.NewUniformRandom(), uint64(v))
			for pid, o := range outs {
				if o.status != Commit || o.v != value.Value(v) {
					t.Fatalf("m=%d pid=%d got (%s, %s)", m, pid, o.status, o.v)
				}
			}
		}
	}
}

func TestCommitAgreement(t *testing.T) {
	// If anyone commits v, everyone holds v.
	for seed := uint64(0); seed < 100; seed++ {
		inputs := []value.Value{0, 1, 0, 1}
		outs := propose(t, 2, 4, inputs, sched.NewUniformRandom(), seed)
		committed := value.None
		for _, o := range outs {
			if o.status == Commit {
				committed = o.v
			}
		}
		if committed.IsNone() {
			continue
		}
		for pid, o := range outs {
			if o.v != committed {
				t.Fatalf("seed %d: pid %d holds %s but %s was committed", seed, pid, o.v, committed)
			}
		}
	}
}

func TestValidity(t *testing.T) {
	inputs := []value.Value{3, 1, 4}
	for seed := uint64(0); seed < 30; seed++ {
		outs := propose(t, 5, 3, inputs, sched.NewUniformRandom(), seed)
		for pid, o := range outs {
			ok := false
			for _, in := range inputs {
				if o.v == in {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("seed %d: pid %d got non-proposed value %s", seed, pid, o.v)
			}
		}
	}
}

func TestExhaustiveSmall(t *testing.T) {
	// Every schedule of the adopt-commit object at n=2 via the model
	// checker (through the deciding-object adapter).
	build := func(file *register.File) core.Object {
		return New(file, 2, 1).AsDeciding()
	}
	stats, err := modelcheck.Exhaustive(build, []value.Value{0, 1},
		modelcheck.Options{RatifierPrefix: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Schedules == 0 {
		t.Fatal("no schedules explored")
	}
}

func TestRegisterFootprint(t *testing.T) {
	file := register.NewFile()
	if got := New(file, 2, 1).Registers(); got != 3 {
		t.Fatalf("binary adopt-commit uses %d registers, want 3", got)
	}
	file2 := register.NewFile()
	if got := New(file2, 1000, 1).Registers(); got != 14 { // MinPoolSize(1000)=13, +1 proposal
		t.Fatalf("m=1000 adopt-commit uses %d registers, want 14", got)
	}
}

func TestStatusStrings(t *testing.T) {
	if Adopt.String() != "adopt" || Commit.String() != "commit" {
		t.Fatal("status strings")
	}
	if Status(9).String() != "status(9)" {
		t.Fatal("unknown status string")
	}
}
