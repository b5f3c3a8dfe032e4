package setagree

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

func runSetAgree(t *testing.T, n, m, k int, inputs []value.Value, s sched.Scheduler, seed uint64, crash map[int]int) *exec.Result {
	t.Helper()
	file := register.NewFile()
	p, err := New(file, n, m, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunProgram(func(e core.Env) value.Value { return p.Run(e, inputs[e.PID()]) },
		harness.ObjectConfig{N: n, File: file, Scheduler: s, Seed: seed, CrashAfter: crash})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func distinct(outs []value.Value) int {
	seen := make(map[value.Value]bool)
	for _, v := range outs {
		seen[v] = true
	}
	return len(seen)
}

func TestAtMostKValues(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, mk := range []func() sched.Scheduler{
			func() sched.Scheduler { return sched.NewUniformRandom() },
			func() sched.Scheduler { return sched.NewFirstMoverAttack() },
			func() sched.Scheduler { return sched.NewRoundRobin() },
		} {
			for seed := uint64(0); seed < 10; seed++ {
				n, m := 6, 6
				inputs := make([]value.Value, n)
				for i := range inputs {
					inputs[i] = value.Value(i) // all distinct
				}
				res := runSetAgree(t, n, m, k, inputs, mk(), seed, nil)
				outs := res.HaltedOutputs()
				if len(outs) != n {
					t.Fatalf("k=%d seed=%d: %d/%d processes decided", k, seed, len(outs), n)
				}
				if got := distinct(outs); got > k {
					t.Fatalf("k=%d seed=%d: %d distinct outputs %v", k, seed, got, outs)
				}
				if err := check.Validity(inputs, outs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestKEqualsOneIsConsensus(t *testing.T) {
	n, m := 5, 3
	inputs := []value.Value{0, 1, 2, 1, 0}
	for seed := uint64(0); seed < 15; seed++ {
		res := runSetAgree(t, n, m, 1, inputs, sched.NewUniformRandom(), seed, nil)
		if err := check.Consensus(inputs, res.HaltedOutputs()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGroupIsolationUnderCrashes(t *testing.T) {
	// Crash every member of group 0 (pids ≡ 0 mod 2): group 1 must be
	// completely unaffected.
	n, m, k := 6, 4, 2
	inputs := []value.Value{0, 1, 2, 3, 0, 1}
	crash := map[int]int{0: 2, 2: 3, 4: 4}
	res := runSetAgree(t, n, m, k, inputs, sched.NewUniformRandom(), 7, crash)
	var group1 []value.Value
	for pid := 1; pid < n; pid += 2 {
		if !res.Halted[pid] {
			t.Fatalf("pid %d (group 1) did not decide", pid)
		}
		group1 = append(group1, res.Outputs[pid])
	}
	if err := check.Agreement(group1); err != nil {
		t.Fatal(err)
	}
	// Group 1's decision must come from group 1's inputs only.
	if err := check.Validity([]value.Value{1, 3, 1}, group1); err != nil {
		t.Fatal(err)
	}
}

func TestWithinGroupAgreement(t *testing.T) {
	n, m, k := 7, 5, 3
	inputs := make([]value.Value, n)
	for i := range inputs {
		inputs[i] = value.Value(i % m)
	}
	res := runSetAgree(t, n, m, k, inputs, sched.NewFirstMoverAttack(), 3, nil)
	for g := 0; g < k; g++ {
		var outs []value.Value
		for pid := g; pid < n; pid += k {
			outs = append(outs, res.Outputs[pid])
		}
		if err := check.Agreement(outs); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
}

func TestValidation(t *testing.T) {
	file := register.NewFile()
	cases := []struct{ n, m, k int }{
		{0, 2, 1}, {2, 1, 1}, {2, 2, 0}, {2, 2, 3},
	}
	for i, tt := range cases {
		if _, err := New(file, tt.n, tt.m, tt.k); err == nil {
			t.Errorf("case %d (%+v): expected error", i, tt)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	// 7 processes in 3 groups: sizes 3, 2, 2.
	want := []int{3, 2, 2}
	for g, w := range want {
		if got := groupSize(7, 3, g); got != w {
			t.Errorf("groupSize(7,3,%d) = %d, want %d", g, got, w)
		}
	}
}

func TestAtMostKValuesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	n, m, k := 9, 9, 3
	for seed := uint64(0); seed < 400; seed++ {
		inputs := make([]value.Value, n)
		for i := range inputs {
			inputs[i] = value.Value(i)
		}
		res := runSetAgree(t, n, m, k, inputs, sched.NewUniformRandom(), seed, nil)
		if got := distinct(res.HaltedOutputs()); got > k {
			t.Fatalf("seed %d: %d distinct outputs", seed, got)
		}
	}
}
