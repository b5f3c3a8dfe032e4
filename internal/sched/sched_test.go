package sched

import (
	"fmt"
	"testing"

	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// mkView builds a view with the given runnable pids, all with generic valid
// pending ops.
func mkView(n int, runnable ...int) *View {
	v := &View{Power: Oblivious, N: n, Pending: make([]Op, n)}
	for _, pid := range runnable {
		v.SetOp(pid, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	}
	v.Runnable = append([]int(nil), runnable...)
	return v
}

func drive(t *testing.T, s Scheduler, v *View, steps int) []int {
	t.Helper()
	s.Seed(xrand.New(7))
	out := make([]int, 0, steps)
	for i := 0; i < steps; i++ {
		pid := s.Next(v)
		found := false
		for _, r := range v.Runnable {
			if r == pid {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s chose non-runnable pid %d", s.Name(), pid)
		}
		out = append(out, pid)
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	s := NewRoundRobin()
	v := mkView(3, 0, 1, 2)
	got := drive(t, s, v, 7)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsHalted(t *testing.T) {
	s := NewRoundRobin()
	v := mkView(4, 0, 2) // 1 and 3 halted
	got := drive(t, s, v, 4)
	want := []int{0, 2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestFixedOrderFollowsPermutation(t *testing.T) {
	s := NewFixedOrder([]int{2, 0, 1})
	v := mkView(3, 0, 1, 2)
	got := drive(t, s, v, 6)
	want := []int{2, 0, 1, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestFixedOrderCopiesInput(t *testing.T) {
	perm := []int{0, 1}
	s := NewFixedOrder(perm)
	perm[0] = 99 // must not affect the scheduler
	v := mkView(2, 0, 1)
	if got := s.Next(v); got != 0 {
		t.Fatalf("Next = %d after caller mutated perm", got)
	}
}

func TestFixedOrderWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFixedOrder([]int{0}).Next(mkView(2, 0, 1))
}

// panicMessage runs f and returns what it panicked with, or "" if it
// returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestFixedOrderRejectsNonPermutation(t *testing.T) {
	for _, tt := range []struct {
		perm []int
		want string
	}{
		{[]int{0, 0, 1}, "sched: FixedOrder repeats pid 0"},
		{[]int{2, 1, 2}, "sched: FixedOrder repeats pid 2"},
		{[]int{0, 3, 1}, "sched: FixedOrder entry 3 out of range [0, 3)"},
		{[]int{-1, 0}, "sched: FixedOrder entry -1 out of range [0, 2)"},
	} {
		if got := panicMessage(func() { NewFixedOrder(tt.perm) }); got != tt.want {
			t.Errorf("NewFixedOrder(%v) panicked with %q, want %q", tt.perm, got, tt.want)
		}
	}
}

func TestPriorityRejectsWrongRankCount(t *testing.T) {
	for _, tt := range []struct {
		ranks []int
		n     int
		want  string
	}{
		{[]int{2, 1, 0}, 4, "sched: Priority has 3 ranks for n=4"},
		{[]int{0, 1, 2}, 2, "sched: Priority has 3 ranks for n=2"},
		{[]int{}, 1, "sched: Priority has 0 ranks for n=1"},
		{[]int{1, 0}, 2, ""},
		{nil, 3, ""},
	} {
		all := make([]int, tt.n)
		for pid := range all {
			all[pid] = pid
		}
		v := mkView(tt.n, all...)
		if got := panicMessage(func() { NewPriority(tt.ranks).Next(v) }); got != tt.want {
			t.Errorf("NewPriority(%v).Next at n=%d panicked with %q, want %q", tt.ranks, tt.n, got, tt.want)
		}
	}
}

func TestUniformRandomCoversAll(t *testing.T) {
	s := NewUniformRandom()
	v := mkView(4, 0, 1, 2, 3)
	got := drive(t, s, v, 400)
	seen := make(map[int]int)
	for _, pid := range got {
		seen[pid]++
	}
	for pid := 0; pid < 4; pid++ {
		if seen[pid] < 50 {
			t.Fatalf("pid %d scheduled only %d/400 times", pid, seen[pid])
		}
	}
}

func TestUniformRandomRequiresSeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without Seed")
		}
	}()
	NewUniformRandom().Next(mkView(1, 0))
}

func TestLaggardLockstep(t *testing.T) {
	s := NewLaggard()
	v := mkView(3, 0, 1, 2)
	got := drive(t, s, v, 9)
	// Every process must take k steps before any takes k+1.
	counts := make([]int, 3)
	for _, pid := range got {
		counts[pid]++
		for _, c := range counts {
			if counts[pid]-c > 1 {
				t.Fatalf("lockstep violated: counts %v after scheduling %d", counts, pid)
			}
		}
	}
}

func TestFrontrunnerSticksToOneProcess(t *testing.T) {
	s := NewFrontrunner()
	v := mkView(3, 0, 1, 2)
	got := drive(t, s, v, 10)
	for i, pid := range got {
		if pid != got[0] {
			t.Fatalf("frontrunner switched process at step %d: %v", i, got)
		}
	}
}

func TestPriorityHighestRunnableWins(t *testing.T) {
	s := NewPriority(nil)
	v := mkView(3, 1, 2)
	if pid := s.Next(v); pid != 1 {
		t.Fatalf("priority chose %d, want 1", pid)
	}
	// Custom ranks: pid 2 highest.
	s2 := NewPriority([]int{2, 1, 0})
	v2 := mkView(3, 0, 1, 2)
	if pid := s2.Next(v2); pid != 2 {
		t.Fatalf("ranked priority chose %d, want 2", pid)
	}
}

func TestNoisyZeroSigmaIsDeterministicLockstep(t *testing.T) {
	s := NewNoisy(0)
	v := mkView(2, 0, 1)
	got := drive(t, s, v, 6)
	want := []int{0, 1, 0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestNoisyEventuallyBreaksLockstep(t *testing.T) {
	s := NewNoisy(0.5)
	v := mkView(2, 0, 1)
	got := drive(t, s, v, 200)
	// With jitter, some process must take two consecutive steps at least
	// once in 200 steps (probability of perfect alternation is negligible).
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			return
		}
	}
	t.Fatal("noisy scheduler produced perfect alternation over 200 steps")
}

func TestNoisyIntervalsBias(t *testing.T) {
	s := NewNoisy(0.01)
	s.Intervals = []float64{1, 10} // pid 0 is 10x faster
	v := mkView(2, 0, 1)
	got := drive(t, s, v, 110)
	c0 := 0
	for _, pid := range got {
		if pid == 0 {
			c0++
		}
	}
	if c0 < 90 {
		t.Fatalf("fast process took only %d/110 steps", c0)
	}
}

func TestNoisyNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNoisy(-1)
}

func TestFirstMoverAttackPhases(t *testing.T) {
	s := NewFirstMoverAttack()
	s.Seed(xrand.New(1))
	n := 3
	v := &View{Power: LocationOblivious, N: n, Runnable: []int{0, 1, 2},
		Pending: make([]Op, n), Memory: []value.Value{value.None}}
	// p0 poised to probwrite, p1/p2 poised to read: attack must advance a
	// reader to grow the pending-write pool.
	v.SetOp(0, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 5, ProbNum: 1, ProbDen: 4})
	v.SetOp(1, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	v.SetOp(2, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	if pid := s.Next(v); pid != 1 {
		t.Fatalf("phase 1 chose %d, want reader 1", pid)
	}
	// All poised to probwrite: fire the fewest-attempts process.
	v.SetOp(1, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 6, ProbNum: 1, ProbDen: 4})
	v.SetOp(2, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 7, ProbNum: 1, ProbDen: 4})
	first := s.Next(v)
	if first < 0 || first > 2 {
		t.Fatalf("phase 1 release chose %d", first)
	}
	// Memory written: must first lock a witness reader on the current value.
	v.Memory[0] = 5
	v.Changed = Change{Valid: true, Reg: 0, Old: value.None}
	v.SetOp(0, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("endgame chose %d, want witness reader 0", pid)
	}
	// Witness locked on value 5: must now fire a pending probwrite whose
	// value differs from 5 (pid 2, value 7), never the 5-valued one.
	v.Changed = Change{}
	v.SetOp(0, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 5, ProbNum: 1, ProbDen: 4})
	if pid := s.Next(v); pid == 0 || v.Pending[pid].Kind != OpProbWrite {
		t.Fatalf("endgame chose %d, want a conflicting probwrite", pid)
	}
	// Memory flipped to a conflicting value: readers first to bank the
	// disagreement.
	v.Memory[0] = 7
	v.Changed = Change{Valid: true, Reg: 0, Old: 5}
	v.SetOp(1, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	if pid := s.Next(v); pid != 1 {
		t.Fatalf("post-flip chose %d, want reader 1", pid)
	}
}

func TestEndgameWithoutReaders(t *testing.T) {
	// If no reader is available to lock, the endgame keeps firing writes.
	s := NewFirstMoverAttack()
	n := 2
	v := &View{Power: LocationOblivious, N: n, Runnable: []int{0, 1},
		Pending: make([]Op, n), Memory: []value.Value{value.None}}
	v.SetOp(0, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 4, ProbNum: 1, ProbDen: 2})
	v.SetOp(1, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 5, ProbNum: 1, ProbDen: 2})
	// The pool is full: the attack arms and releases pid 0's attempt.
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("pool release chose %d, want 0", pid)
	}
	// It lands. The pool phase would now release pid 1 (fewer attempts);
	// the endgame counts its own attempts, so it fires pid 0 again.
	v.Memory[0] = 4
	v.Changed = Change{Valid: true, Reg: 0, Old: value.None}
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("endgame chose %d, want the probwrite of pid 0", pid)
	}
}

func TestEagerWriteAttackOpeningIsRoundRobin(t *testing.T) {
	s := NewEagerWriteAttack()
	n := 2
	v := &View{Power: LocationOblivious, N: n, Runnable: []int{0, 1},
		Pending: make([]Op, n), Memory: []value.Value{value.None}}
	v.SetOp(0, Op{Valid: true, Kind: OpRead})
	v.SetOp(1, Op{Valid: true, Kind: OpProbWrite, Val: 3})
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("first pick %d, want 0", pid)
	}
	if pid := s.Next(v); pid != 1 {
		t.Fatalf("second pick %d, want 1", pid)
	}
}

func TestEagerWriteAttackEndgame(t *testing.T) {
	// Once a write lands after arming, the shared endgame takes over from
	// round-robin: lock a witness reader, then fire conflicting writes.
	s := NewEagerWriteAttack()
	s.Seed(xrand.New(1))
	n := 3
	v := &View{Power: LocationOblivious, N: n, Runnable: []int{0, 1, 2},
		Pending: make([]Op, n), Memory: []value.Value{value.None}}
	v.SetOp(0, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 9, ProbNum: 1, ProbDen: 2})
	v.SetOp(1, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 9, ProbNum: 1, ProbDen: 2})
	v.SetOp(2, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 3, ProbNum: 1, ProbDen: 2})
	// Pending probabilistic writes arm the attack; round-robin fires pid 0.
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("opening pick %d, want 0", pid)
	}
	// Its write of 9 lands and pid 0 goes on to read. Round-robin would
	// pick pid 1 next; the endgame locks pid 0 as the witness.
	v.Memory[0] = 9
	v.Changed = Change{Valid: true, Reg: 0, Old: value.None}
	v.SetOp(0, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("witness pick %d, want reader 0", pid)
	}
	// The witness returned 9. Only pid 2's write of 3 can flip the
	// register; pid 1 would rewrite 9, so it is never picked while memory
	// holds 9, whichever attempts miss.
	v.Changed = Change{}
	v.SetOp(0, Op{})
	v.Runnable = []int{1, 2}
	for i := 0; i < 3; i++ {
		if pid := s.Next(v); pid != 2 {
			t.Fatalf("conflict pick %d at attempt %d, want writer 2", pid, i)
		}
	}
}

func TestSplitVotePrefersEvens(t *testing.T) {
	s := NewSplitVote()
	v := mkView(4, 0, 1, 2, 3)
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("chose %d, want 0", pid)
	}
	v2 := mkView(4, 1, 3)
	if pid := s.Next(v2); pid != 1 {
		t.Fatalf("chose %d among odds, want 1", pid)
	}
}

func TestAdaptiveSpoilerAlternatesVictimAndConflict(t *testing.T) {
	s := NewAdaptiveSpoiler()
	n := 3
	v := &View{Power: Adaptive, N: n, Runnable: []int{0, 1, 2},
		Pending: make([]Op, n), Memory: []value.Value{7}}
	v.SetOp(0, Op{Valid: true, Kind: OpRead, Reg: 0, Val: value.None})
	v.SetOp(1, Op{Valid: true, Kind: OpWrite, Reg: 0, Val: 7}) // same value: no conflict
	v.SetOp(2, Op{Valid: true, Kind: OpWrite, Reg: 0, Val: 9}) // conflict
	// First commit a victim reader to the current value...
	if pid := s.Next(v); pid != 0 {
		t.Fatalf("spoiler chose %d, want victim reader 0", pid)
	}
	// ...then fire the conflicting write (never the same-value one).
	v.SetOp(0, Op{})
	v.Runnable = []int{1, 2}
	if pid := s.Next(v); pid != 2 {
		t.Fatalf("spoiler chose %d, want conflicting writer 2", pid)
	}
}

func TestMinPowers(t *testing.T) {
	cases := []struct {
		s    Scheduler
		want Power
	}{
		{NewRoundRobin(), Oblivious},
		{NewFixedOrder([]int{0}), Oblivious},
		{NewUniformRandom(), Oblivious},
		{NewLaggard(), Oblivious},
		{NewFrontrunner(), Oblivious},
		{NewNoisy(0.1), Oblivious},
		{NewPriority(nil), Oblivious},
		{NewSplitVote(), ValueOblivious},
		{NewFirstMoverAttack(), LocationOblivious},
		{NewEagerWriteAttack(), LocationOblivious},
		{NewAdaptiveSpoiler(), Adaptive},
	}
	for _, tt := range cases {
		if got := tt.s.MinPower(); got != tt.want {
			t.Errorf("%s MinPower = %v, want %v", tt.s.Name(), got, tt.want)
		}
		if tt.s.Name() == "" {
			t.Errorf("%T has empty name", tt.s)
		}
	}
}

func TestPowerAndOpKindStrings(t *testing.T) {
	for p, want := range map[Power]string{
		Oblivious: "oblivious", ValueOblivious: "value-oblivious",
		LocationOblivious: "location-oblivious", Adaptive: "adaptive",
		Power(0): "power(0)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Power(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	for k, want := range map[OpKind]string{
		OpRead: "read", OpWrite: "write", OpProbWrite: "probwrite",
		OpCollect: "collect", OpKind(9): "op(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestFirstWrittenValue(t *testing.T) {
	for _, tt := range []struct {
		name    string
		mem     []value.Value
		want    value.Value
		written bool
	}{
		{"nil memory", nil, value.None, false},
		{"all ⊥", []value.Value{value.None, value.None}, value.None, false},
		{"lowest written cell", []value.Value{value.None, 3, 5}, 3, true},
	} {
		if got, written := firstWrittenValue(tt.mem); got != tt.want || written != tt.written {
			t.Errorf("%s: firstWrittenValue = %v, %v; want %v, %v", tt.name, got, written, tt.want, tt.written)
		}
	}
}
