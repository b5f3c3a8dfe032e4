package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"crash:pid=2,after=5",
		"crashround:pid=*,round=3",
		"stall:pid=1,after=0",
		"delay:pid=*,max=200µs",
		"losecoin:pid=*,p=1/8",
		"crash:pid=0,after=0;stall:pid=*,after=7;losecoin:pid=3,p=3/4",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse of %q (-> %q): %v", s, p.String(), err)
		}
		if p.String() != q.String() {
			t.Fatalf("round trip of %q: %q != %q", s, p.String(), q.String())
		}
	}
}

func TestParseDefaultsAndForms(t *testing.T) {
	// pid defaults to the * wildcard when omitted.
	p, err := Parse("crash:after=4")
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults[0].PID != AllProcs {
		t.Fatalf("pid = %d, want AllProcs", p.Faults[0].PID)
	}
	// Decimal probabilities become exact 2^32-denominator rationals.
	p, err = Parse("losecoin:p=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Faults[0]; f.Num != 1<<30 || f.Den != 1<<32 {
		t.Fatalf("p=0.25 parsed to %d/%d", f.Num, f.Den)
	}
	// Empty input and bare separators are the nil plan.
	for _, s := range []string{"", "  ", ";", "; ;"} {
		p, err := Parse(s)
		if err != nil || p != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", s, p, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"explode:pid=1",               // unknown kind
		"crash",                       // missing ':'
		"crash:pid=1",                 // missing after=
		"crash:pid=1,after=-1",        // negative threshold
		"crash:pid=-2,after=1",        // bad pid
		"crash:pid=1,after=1,after=2", // duplicate key
		"crash:pid=1,round=3",         // key from wrong kind
		"delay:pid=1,max=0s",          // non-positive jitter
		"delay:pid=1,max=2s",          // beyond sanity cap
		"losecoin:pid=1,p=5/4",        // p > 1
		"losecoin:pid=1,p=1/0",        // zero denominator
		"losecoin:pid=1,p=nope",       // unparseable
		"stall:pid=x,after=1",         // bad pid literal
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestValidateRange(t *testing.T) {
	p := New(Crash(5, 1))
	if err := p.Validate(0); err != nil {
		t.Fatalf("n-independent validation failed: %v", err)
	}
	if err := p.Validate(4); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("pid 5 accepted for n=4: %v", err)
	}
	if err := p.Validate(6); err != nil {
		t.Fatalf("pid 5 rejected for n=6: %v", err)
	}
}

func TestCompileThresholds(t *testing.T) {
	p := New(
		Crash(0, 5), Crash(0, 3), // min wins
		Stall(2, 7),
		CrashOnRound(1, 3),
		Delay(AllProcs, 100*time.Microsecond),
		LoseCoin(1, 1, 4), LoseCoin(1, 1, 2), // larger probability wins
	)
	in, err := Compile(p, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CrashAt(0); got != 3 {
		t.Fatalf("CrashAt(0) = %d", got)
	}
	if got := in.CrashAt(1); got != Never {
		t.Fatalf("CrashAt(1) = %d", got)
	}
	if got := in.StallAt(2); got != 7 {
		t.Fatalf("StallAt(2) = %d", got)
	}
	// Round 3 of n=4 starts at global operation 2*4+1 = 9.
	if got := in.CrashStep(1); got != 9 {
		t.Fatalf("CrashStep(1) = %d", got)
	}
	if !in.HasCrashStep() || !in.HasStall() {
		t.Fatal("compiled flags lost")
	}
	if in.lose[1] != [2]uint64{1, 2} {
		t.Fatalf("lose[1] = %v", in.lose[1])
	}
	// Delay draws are bounded and deterministic per seed.
	a, _ := Compile(p, 4, 9)
	b, _ := Compile(p, 4, 9)
	for i := 0; i < 100; i++ {
		da, db := a.OpDelay(3), b.OpDelay(3)
		if da != db {
			t.Fatal("OpDelay not deterministic per seed")
		}
		if da < 0 || da > 100*time.Microsecond {
			t.Fatalf("OpDelay out of range: %v", da)
		}
	}
}

func TestCompileEmptyPlanIsNil(t *testing.T) {
	for _, p := range []*Plan{nil, {}, New()} {
		in, err := Compile(p, 4, 1)
		if err != nil || in != nil {
			t.Fatalf("Compile(empty) = %v, %v; want nil, nil", in, err)
		}
	}
	// The nil injector answers every query as "no fault".
	var in *Injector
	if in.CrashAt(0) != Never || in.StallAt(0) != Never || in.CrashStep(0) != Never {
		t.Fatal("nil injector plans a fault")
	}
	if in.OpDelay(0) != 0 || in.LoseCoin(0) || in.HasStall() || in.HasCrashStep() {
		t.Fatal("nil injector draws or flags")
	}
}

func TestFromCrashMapAndMerge(t *testing.T) {
	if FromCrashMap(nil) != nil {
		t.Fatal("nil map should give nil plan")
	}
	p := FromCrashMap(map[int]int{3: 9, 0: 2})
	// Deterministic order: sorted by pid.
	if p.String() != "crash:pid=0,after=2;crash:pid=3,after=9" {
		t.Fatalf("FromCrashMap = %q", p)
	}
	m := Merge(p, New(Stall(1, 4)))
	if len(m.Faults) != 3 || !m.HasStall() {
		t.Fatalf("Merge = %q", m)
	}
	if Merge(nil, nil) != nil {
		t.Fatal("Merge(nil, nil) should be nil")
	}
	if got := Merge(nil, p); got.String() != p.String() {
		t.Fatalf("Merge(nil, p) = %q", got)
	}
}

func TestLoseCoinDrawFrequency(t *testing.T) {
	in, err := Compile(New(LoseCoin(0, 1, 2)), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const draws = 10_000
	for i := 0; i < draws; i++ {
		if in.LoseCoin(0) {
			lost++
		}
	}
	if lost < draws*4/10 || lost > draws*6/10 {
		t.Fatalf("p=1/2 lost %d/%d draws", lost, draws)
	}
}

// TestReseedMatchesCompile pins the contract a sim session rests on: the
// session compiles its plan once, at seed 0, and reseeds the injector for
// every trial. After Reseed(s) the injector must report the thresholds and
// draw the LoseCoin and OpDelay sequences of Compile(p, n, s), for every
// seed, in any order, after any number of earlier draws.
func TestReseedMatchesCompile(t *testing.T) {
	const n = 4
	plans := []struct {
		name string
		plan *Plan
	}{
		{"single-pids", New(
			Crash(0, 5), CrashOnRound(1, 3), Stall(2, 7),
			Delay(3, 50*time.Microsecond), LoseCoin(1, 1, 3), LoseCoin(3, 2, 5),
		)},
		{"all-procs", New(
			Crash(AllProcs, 9), CrashOnRound(AllProcs, 2), Stall(AllProcs, 11),
			Delay(AllProcs, 20*time.Microsecond), LoseCoin(AllProcs, 1, 2),
		)},
	}
	// Repeats and a return to 0 catch a Reseed that keeps any state from
	// the trial before.
	seeds := []uint64{0, 7, 1, 7, 1 << 40, 0}
	for _, pc := range plans {
		reused, err := Compile(pc.plan, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			reused.Reseed(seed)
			fresh, err := Compile(pc.plan, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			if reused.HasStall() != fresh.HasStall() || reused.HasCrashStep() != fresh.HasCrashStep() {
				t.Fatalf("%s seed %d: flags differ from a compile at the seed", pc.name, seed)
			}
			for pid := 0; pid < n; pid++ {
				if reused.CrashAt(pid) != fresh.CrashAt(pid) || reused.StallAt(pid) != fresh.StallAt(pid) ||
					reused.CrashStep(pid) != fresh.CrashStep(pid) {
					t.Fatalf("%s seed %d pid %d: thresholds differ from a compile at the seed", pc.name, seed, pid)
				}
			}
			// Interleave the pids' draws the way an execution does.
			for i := 0; i < 16*n; i++ {
				pid := i % n
				if got, want := reused.LoseCoin(pid), fresh.LoseCoin(pid); got != want {
					t.Fatalf("%s seed %d pid %d draw %d: LoseCoin %v, compile at the seed %v", pc.name, seed, pid, i/n, got, want)
				}
				if got, want := reused.OpDelay(pid), fresh.OpDelay(pid); got != want {
					t.Fatalf("%s seed %d pid %d draw %d: OpDelay %v, compile at the seed %v", pc.name, seed, pid, i/n, got, want)
				}
			}
		}
	}
}
