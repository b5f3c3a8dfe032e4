package sharedcoin

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

// flipAll executes coin for n processes and returns outputs plus the result.
func flipAll(t *testing.T, file *register.File, coin Coin, n int, s sched.Scheduler, seed uint64) (*exec.Result, []value.Value) {
	t.Helper()
	outs := make([]value.Value, n)
	res, err := harness.RunProgram(func(e core.Env) value.Value {
		v := coin.Flip(e)
		outs[e.PID()] = v
		return v
	}, harness.ObjectConfig{N: n, File: file, Scheduler: s, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res, outs
}

func TestVotingOutputsAreBits(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		file := register.NewFile()
		coin := NewVoting(file, 4, 1)
		_, outs := flipAll(t, file, coin, 4, sched.NewUniformRandom(), seed)
		for pid, v := range outs {
			if v != 0 && v != 1 {
				t.Fatalf("pid %d output %s", pid, v)
			}
		}
	}
}

func TestVotingAgreementProbability(t *testing.T) {
	// Both all-0 and all-1 must each occur with constant probability; with
	// an oblivious scheduler agreement should in fact dominate.
	const trials = 300
	n := 4
	all0, all1, agree := 0, 0, 0
	for seed := uint64(0); seed < trials; seed++ {
		file := register.NewFile()
		coin := NewVoting(file, n, 1)
		_, outs := flipAll(t, file, coin, n, sched.NewUniformRandom(), seed)
		if check.Unanimous(outs) {
			agree++
			if outs[0] == 0 {
				all0++
			} else {
				all1++
			}
		}
	}
	if all0 < trials/20 || all1 < trials/20 {
		t.Errorf("sides not both constant-probability: all0=%d all1=%d / %d", all0, all1, trials)
	}
	if agree < trials/2 {
		t.Errorf("agreement only %d/%d under oblivious scheduling", agree, trials)
	}
}

func TestVotingNearFairness(t *testing.T) {
	// Over many seeds, side 1 should win roughly half the time. Ties in
	// the net sum resolve to 1, so use a threshold large enough (≈100
	// votes) that ties are rare; the default n² threshold at n=2 would
	// leave a visible tie bias.
	const trials = 400
	ones := 0
	for seed := uint64(0); seed < trials; seed++ {
		file := register.NewFile()
		coin := NewVoting(file, 2, 1)
		coin.Threshold = 101
		_, outs := flipAll(t, file, coin, 2, sched.NewRoundRobin(), seed)
		if outs[0] == 1 {
			ones++
		}
	}
	if ones < trials/3 || ones > 2*trials/3 {
		t.Errorf("side-1 rate %d/%d far from fair", ones, trials)
	}
}

func TestVotingThresholdControlsWork(t *testing.T) {
	n := 4
	work := func(threshold int) int {
		file := register.NewFile()
		coin := NewVoting(file, n, 1)
		coin.Threshold = threshold
		res, _ := flipAll(t, file, coin, n, sched.NewRoundRobin(), 7)
		return res.TotalWork
	}
	small, large := work(n), work(4*n*n)
	if small >= large {
		t.Errorf("threshold did not scale work: %d vs %d", small, large)
	}
}

func TestVotingBatchReducesWork(t *testing.T) {
	n := 6
	run := func(batch int) int {
		file := register.NewFile()
		coin := NewVoting(file, n, 1)
		coin.Batch = batch
		res, _ := flipAll(t, file, coin, n, sched.NewRoundRobin(), 11)
		return res.TotalWork
	}
	if b1, b8 := run(1), run(8); b8 >= b1 {
		t.Errorf("batching did not reduce work: batch1=%d batch8=%d", b1, b8)
	}
}

func TestVotingSolo(t *testing.T) {
	// One participant: votes alone to the threshold and returns a bit.
	file := register.NewFile()
	coin := NewVoting(file, 3, 1)
	outs := make([]value.Value, 1)
	res, err := harness.RunProgram(func(e core.Env) value.Value {
		outs[0] = coin.Flip(e)
		return outs[0]
	}, harness.ObjectConfig{N: 1, File: file, Scheduler: sched.NewRoundRobin(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != 0 && outs[0] != 1 {
		t.Fatalf("solo output %s", outs[0])
	}
	// Solo must cast ≥ Threshold votes, each with a write and collect.
	if res.TotalWork < coin.Threshold {
		t.Fatalf("solo work %d below threshold %d", res.TotalWork, coin.Threshold)
	}
}

func TestLocalCoinSmallN(t *testing.T) {
	// n=2 local coins agree with probability 1/2; each side ≥ 1/8 of runs.
	const trials = 400
	all0, all1 := 0, 0
	for seed := uint64(0); seed < trials; seed++ {
		file := register.NewFile()
		file.Alloc1("pad")
		coin := NewLocal(1)
		_, outs := flipAll(t, file, coin, 2, sched.NewRoundRobin(), seed)
		if check.Unanimous(outs) {
			if outs[0] == 0 {
				all0++
			} else {
				all1++
			}
		}
	}
	if all0 < trials/8 || all1 < trials/8 {
		t.Errorf("local coin sides: all0=%d all1=%d / %d", all0, all1, trials)
	}
}

func TestTallyPacking(t *testing.T) {
	cases := []struct{ votes, net int }{
		{0, 0}, {1, 1}, {1, -1}, {10, -10}, {10, 10}, {100, 0}, {57, -3},
	}
	for _, tt := range cases {
		v, n := unpackTally(packTally(tt.votes, tt.net))
		if v != tt.votes || n != tt.net {
			t.Errorf("tally (%d,%d) round-tripped to (%d,%d)", tt.votes, tt.net, v, n)
		}
	}
}

func TestLabels(t *testing.T) {
	file := register.NewFile()
	if got := NewVoting(file, 2, 3).Label(); got != "coin3" {
		t.Errorf("voting label %q", got)
	}
	if got := NewLocal(2).Label(); got != "localcoin2" {
		t.Errorf("local label %q", got)
	}
}

func TestVotingRejectsBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVoting(register.NewFile(), 0, 1)
}

func TestWeightedOutputsAreBits(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		file := register.NewFile()
		coin := NewWeighted(file, 4, 1)
		_, outs := flipAll(t, file, coin, 4, sched.NewUniformRandom(), seed)
		for pid, v := range outs {
			if v != 0 && v != 1 {
				t.Fatalf("pid %d output %s", pid, v)
			}
		}
	}
}

func TestWeightedBothSidesOccur(t *testing.T) {
	const trials = 300
	n := 4
	all0, all1 := 0, 0
	for seed := uint64(0); seed < trials; seed++ {
		file := register.NewFile()
		coin := NewWeighted(file, n, 1)
		_, outs := flipAll(t, file, coin, n, sched.NewUniformRandom(), seed)
		if check.Unanimous(outs) {
			if outs[0] == 0 {
				all0++
			} else {
				all1++
			}
		}
	}
	if all0 < trials/20 || all1 < trials/20 {
		t.Errorf("weighted coin sides: all0=%d all1=%d / %d", all0, all1, trials)
	}
}

func TestWeightedSoloIsLogarithmic(t *testing.T) {
	// The whole point of growing weights: a solo run reaches the variance
	// threshold in O(log threshold) votes, vs Θ(threshold) unweighted.
	n := 32
	soloWork := func(coin Coin, file *register.File) int {
		res, err := harness.RunProgram(func(e core.Env) value.Value { return coin.Flip(e) },
			harness.ObjectConfig{N: 1, File: file, Scheduler: sched.NewRoundRobin(), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalWork
	}
	fileW := register.NewFile()
	weighted := soloWork(NewWeighted(fileW, n, 1), fileW)
	fileV := register.NewFile()
	unweighted := soloWork(NewVoting(fileV, n, 1), fileV)
	if weighted*10 > unweighted {
		t.Errorf("weighted solo %d ops vs unweighted %d ops: expected ≥10x separation", weighted, unweighted)
	}
}

func TestWeightedPeriodSlowsGrowth(t *testing.T) {
	file := register.NewFile()
	c := NewWeighted(file, 4, 1)
	c.Threshold = 1 << 20 // keep the cap out of the way for the growth check
	if c.weight(0) != 1 || c.weight(1) != 2 || c.weight(3) != 8 {
		t.Fatalf("period-1 weights: %d %d %d", c.weight(0), c.weight(1), c.weight(3))
	}
	c.Period = 3
	if c.weight(2) != 1 || c.weight(3) != 2 || c.weight(6) != 4 {
		t.Fatalf("period-3 weights: %d %d %d", c.weight(2), c.weight(3), c.weight(6))
	}
	// Cap: weight² never exceeds threshold by more than one doubling.
	c.Period = 1
	c.Threshold = 100
	for k := 0; k < 40; k++ {
		if w := c.weight(k); w*w >= 4*c.Threshold {
			t.Fatalf("weight(%d) = %d runs far past the cap", k, w)
		}
	}
}
