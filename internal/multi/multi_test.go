package multi

import (
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

func proposals(slots, n, m, shift int) [][]value.Value {
	out := make([][]value.Value, slots)
	for s := range out {
		out[s] = make([]value.Value, n)
		for pid := range out[s] {
			out[s][pid] = value.Value((pid*3 + s + shift) % m)
		}
	}
	return out
}

func TestSequenceAllSlotsDecide(t *testing.T) {
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewUniformRandom() },
		func() sched.Scheduler { return sched.NewFirstMoverAttack() },
		func() sched.Scheduler { return sched.NewRoundRobin() },
	} {
		for seed := uint64(0); seed < 10; seed++ {
			res, err := Run(Config{
				ObjectConfig: harness.ObjectConfig{N: 4, Scheduler: mk(), Seed: seed},
				M:            5,
				Proposals:    proposals(6, 4, 5, int(seed)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for slot, v := range res.Agreed {
				if v.IsNone() {
					t.Fatalf("seed %d: slot %d undecided", seed, slot)
				}
			}
		}
	}
}

func TestSequencePerSlotAgreement(t *testing.T) {
	res, err := Run(Config{
		ObjectConfig: harness.ObjectConfig{N: 5, Scheduler: sched.NewUniformRandom(), Seed: 9},
		M:            3,
		Proposals:    proposals(8, 5, 3, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for slot := range res.Outputs {
		for pid, v := range res.Outputs[slot] {
			if v != res.Agreed[slot] {
				t.Fatalf("slot %d pid %d: %s != agreed %s", slot, pid, v, res.Agreed[slot])
			}
		}
	}
	if res.TotalWork <= 0 || len(res.Work) != 5 {
		t.Fatalf("work accounting: %d %v", res.TotalWork, res.Work)
	}
}

func TestSequenceWithCrashes(t *testing.T) {
	// Two of four processes crash mid-sequence; surviving processes must
	// still decide every slot, and decided prefixes of crashed processes
	// must agree.
	res, err := Run(Config{
		ObjectConfig: harness.ObjectConfig{
			N:          4,
			Scheduler:  sched.NewUniformRandom(),
			Seed:       3,
			CrashAfter: map[int]int{0: 5, 1: 12},
		},
		M:         2,
		Proposals: proposals(5, 4, 2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[0] || !res.Crashed[1] {
		t.Fatalf("crashes not applied: %v", res.Crashed)
	}
	for slot := range res.Outputs {
		if res.Outputs[slot][2].IsNone() || res.Outputs[slot][3].IsNone() {
			t.Fatalf("survivor undecided in slot %d", slot)
		}
	}
}

func TestSequenceSkewBetweenSlots(t *testing.T) {
	// Under the frontrunner, one process completes the whole sequence solo
	// before anybody else moves; later processes must adopt its decisions
	// in every slot.
	res, err := Run(Config{
		ObjectConfig: harness.ObjectConfig{N: 3, Scheduler: sched.NewFrontrunner(), Seed: 4},
		M:            4,
		Proposals:    proposals(6, 3, 4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for slot := range res.Outputs {
		// The frontrunner is pid 0: its value wins every slot.
		if res.Agreed[slot] != res.Outputs[slot][0] {
			t.Fatalf("slot %d agreed %s but frontrunner got %s",
				slot, res.Agreed[slot], res.Outputs[slot][0])
		}
	}
}

func TestSequenceValidation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{ObjectConfig: harness.ObjectConfig{N: 0, Scheduler: sched.NewRoundRobin()}, M: 2, Proposals: proposals(1, 1, 2, 0)}, "N="},
		{Config{ObjectConfig: harness.ObjectConfig{N: 2, Scheduler: sched.NewRoundRobin()}, M: 2, Proposals: nil}, "no slots"},
		{Config{ObjectConfig: harness.ObjectConfig{N: 2, Scheduler: nil}, M: 2, Proposals: proposals(1, 2, 2, 0)}, "nil scheduler"},
		{Config{ObjectConfig: harness.ObjectConfig{N: 3, Scheduler: sched.NewRoundRobin()}, M: 2, Proposals: proposals(1, 2, 2, 0)}, "proposals"},
		{Config{ObjectConfig: harness.ObjectConfig{N: 2, Scheduler: sched.NewRoundRobin()}, M: 2, Proposals: [][]value.Value{{0, 5}}}, "outside"},
	}
	for i, tt := range cases {
		_, err := Run(tt.cfg)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tt.want)
		}
	}
}

func TestSequenceWorkScalesWithSlots(t *testing.T) {
	run := func(slots int) int {
		res, err := Run(Config{
			ObjectConfig: harness.ObjectConfig{N: 4, Scheduler: sched.NewUniformRandom(), Seed: 5},
			M:            2,
			Proposals:    proposals(slots, 4, 2, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalWork
	}
	if w2, w8 := run(2), run(8); w8 <= 2*w2 {
		t.Fatalf("work did not scale with slots: %d vs %d", w2, w8)
	}
}
