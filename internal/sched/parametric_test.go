package sched

import (
	"reflect"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

func TestParametricRoundTrip(t *testing.T) {
	canonical := []string{
		"adv:power=oblivious,base=rr",
		"adv:power=oblivious,base=lockstep",
		"adv:power=oblivious,base=frontrun",
		"adv:power=oblivious,base=random",
		"adv:power=oblivious,base=weighted,w=2:1",
		"adv:power=oblivious,base=rr,phase=8/2/4",
		"adv:power=value-oblivious,base=lockstep;rule:when=prob-pending,do=hold-prob",
		"adv:power=location-oblivious,base=weighted,w=3:0:1,phase=8/2/4;rule:when=mem-written,do=fire-conflict;rule:when=step-ge:100,do=lowest",
		"adv:power=adaptive,base=rr,w=4:1;rule:when=conflict,do=fire-read;rule:when=step-lt:64,do=fire-prob;rule:when=all-prob,do=fire-cheapest-prob;rule:when=in-flight,do=fire-write;rule:when=always,do=weighted",
	}
	for _, want := range canonical {
		cfg, err := ParseParametric(want)
		if err != nil {
			t.Fatalf("Parse(%q): %v", want, err)
		}
		if got := cfg.String(); got != want {
			t.Errorf("String round-trip:\n in  %q\n out %q", want, got)
		}
	}
	// Non-canonical spellings normalize: whitespace is trimmed and an
	// omitted power derives the weakest class the features need.
	for in, want := range map[string]string{
		" adv : power=oblivious , base=rr ":               "adv:power=oblivious,base=rr",
		"adv:base=weighted,w=2:1":                         "adv:power=oblivious,base=weighted,w=2:1",
		"adv:base=rr; rule: when=hold, do=x;":             "", // parse error, checked below
		"adv:base=rr;rule:when=prob-pending,do=hold-prob": "adv:power=value-oblivious,base=rr;rule:when=prob-pending,do=hold-prob",
		"adv:base=rr;rule:when=mem-written,do=lowest":     "adv:power=location-oblivious,base=rr;rule:when=mem-written,do=lowest",
	} {
		if want == "" {
			if _, err := ParseParametric(in); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", in)
			}
			continue
		}
		cfg, err := ParseParametric(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := cfg.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParametricParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"rule:when=always,do=lowest",               // must start with adv
		"adv:base=rr;adv:base=rr",                  // adv only first
		"bogus:base=rr",                            // unknown kind
		"adv:power=bogus,base=rr",                  // unknown power
		"adv:base=bogus",                           // unknown base
		"adv:power=oblivious",                      // base required
		"adv:base=rr,base=rr",                      // duplicate key
		"adv:base=rr,junk=1",                       // unknown adv param
		"adv:base=weighted",                        // weighted without weights
		"adv:base=rr,w=0:0",                        // all-zero weights
		"adv:base=rr,w=a:b",                        // non-integer weight
		"adv:base=rr,w=-1:2",                       // negative weight
		"adv:base=rr,phase=1/0/0",                  // period < 2
		"adv:base=rr,phase=4/0/1",                  // burst < 1
		"adv:base=rr,phase=4/4/1",                  // burst >= period
		"adv:base=rr,phase=4/2/0",                  // focus < 1
		"adv:base=rr,phase=4/2",                    // not period/burst/focus
		"adv:base=rr;",                             // empty trailing spec
		"adv:base=rr;rule:do=lowest",               // missing when
		"adv:base=rr;rule:when=always",             // missing do
		"adv:base=rr;rule:when=bogus,do=lowest",    // unknown cond
		"adv:base=rr;rule:when=always,do=bogus",    // unknown act
		"adv:base=rr;rule:when=always:5,do=lowest", // always takes no K
		"adv:base=rr;rule:when=step-ge,do=lowest",  // step-ge requires K
		"adv:base=rr;rule:when=step-ge:x,do=lowest",
		"adv:base=rr;rule:when=always,do=lowest,do=lowest", // duplicate key
		"adv:power=oblivious,base=rr;rule:when=conflict,do=lowest", // declared < required
		"adv:power=value-oblivious,base=rr;rule:when=mem-written,do=lowest",
	}
	for _, in := range bad {
		if _, err := ParseParametric(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
	// Too many rules.
	var b strings.Builder
	b.WriteString("adv:base=rr")
	for i := 0; i <= maxParamRules; i++ {
		b.WriteString(";rule:when=always,do=lowest")
	}
	if _, err := ParseParametric(b.String()); err == nil {
		t.Error("over-cap rule count accepted")
	}
}

// TestParametricParseErrorFollowsText: when a spec has two bad parameters,
// the first one in the text is the one reported, on every parse.
func TestParametricParseErrorFollowsText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"adv:power=bogus,base=bogus2", `sched: unknown power class "bogus"`},
		{"adv:base=rr;rule:when=bogus,do=bogus2", `sched: unknown rule condition "bogus"`},
	}
	for _, c := range cases {
		for i := 0; i < 100; i++ {
			_, err := ParseParametric(c.in)
			if err == nil || err.Error() != c.want {
				t.Fatalf("parse %d of %q: error %v, want %q", i, c.in, err, c.want)
			}
		}
	}
}

func TestParametricRequiredPower(t *testing.T) {
	cases := map[string]Power{
		"adv:base=rr":             Oblivious,
		"adv:base=weighted,w=1:2": Oblivious,
		"adv:base=rr;rule:when=step-ge:5,do=weighted,w=1:2": 0, // invalid: w on rule spec
		"adv:base=rr;rule:when=always,do=hold-prob":         ValueOblivious,
		"adv:base=rr;rule:when=in-flight,do=lowest":         ValueOblivious,
		"adv:base=rr;rule:when=always,do=fire-conflict":     LocationOblivious,
		"adv:base=rr;rule:when=conflict,do=fire-read":       LocationOblivious,
	}
	for in, want := range cases {
		cfg, err := ParseParametric(in)
		if want == 0 {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error", in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if cfg.Power != want {
			t.Errorf("Parse(%q) derived power %s, want %s", in, cfg.Power, want)
		}
	}
	// A stronger-than-needed declared class is allowed and preserved.
	cfg, err := ParseParametric("adv:power=adaptive,base=rr")
	if err != nil || cfg.Power != Adaptive {
		t.Fatalf("declared adaptive: cfg=%+v err=%v", cfg, err)
	}
}

func TestParametricBaseBehaviors(t *testing.T) {
	mk := func(config string) *Parametric {
		t.Helper()
		p, err := NewParametricFromString(config)
		if err != nil {
			t.Fatalf("NewParametricFromString(%q): %v", config, err)
		}
		return p
	}
	v := mkView(3, 0, 1, 2)

	got := drive(t, mk("adv:base=rr"), v, 7)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rr sequence %v, want %v", got, want)
	}

	// Lockstep: every process takes k steps before any takes k+1.
	got = drive(t, mk("adv:base=lockstep"), v, 9)
	counts := make([]int, 3)
	for _, pid := range got {
		counts[pid]++
		for _, c := range counts {
			if counts[pid]-c > 1 {
				t.Fatalf("lockstep violated: counts %v after %v", counts, got)
			}
		}
	}

	// Frontrun: sticks to one process.
	got = drive(t, mk("adv:base=frontrun"), v, 6)
	for _, pid := range got {
		if pid != got[0] {
			t.Fatalf("frontrun switched process: %v", got)
		}
	}

	// Weighted: largest weight wins, ties to lowest pid; weights index mod
	// the vector length.
	got = drive(t, mk("adv:base=weighted,w=1:5"), v, 3)
	if got[0] != 1 {
		t.Errorf("weighted chose %d, want pid 1 (weight 5)", got[0])
	}
	got = drive(t, mk("adv:base=weighted,w=2"), v, 3)
	if got[0] != 0 {
		t.Errorf("uniform weights chose %d, want lowest pid 0", got[0])
	}

	// Random: covers everyone, stays within runnable (drive checks).
	got = drive(t, mk("adv:base=random"), v, 300)
	seen := make(map[int]int)
	for _, pid := range got {
		seen[pid]++
	}
	for pid := 0; pid < 3; pid++ {
		if seen[pid] < 40 {
			t.Errorf("random scheduled pid %d only %d/300 times", pid, seen[pid])
		}
	}
}

func TestParametricPhaseRestriction(t *testing.T) {
	// period 4, burst 2, focus 2: decisions 0,1 of each period go to pids
	// <2, decisions 2,3 to pids >=2.
	p, err := NewParametricFromString("adv:base=rr,phase=4/2/2")
	if err != nil {
		t.Fatal(err)
	}
	v := mkView(4, 0, 1, 2, 3)
	got := drive(t, p, v, 8)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("phased rr sequence %v, want %v", got, want)
	}
	// Empty restriction falls back to all runnable: focus above every pid
	// means the off-burst half would be empty.
	p2, err := NewParametricFromString("adv:base=rr,phase=2/1/64")
	if err != nil {
		t.Fatal(err)
	}
	drive(t, p2, v, 8) // drive fails the test if a non-runnable pid escapes
}

func TestParametricRulesFirstMoverShape(t *testing.T) {
	// A config spelling the FirstMoverAttack strategy inside the family:
	// lock a witness read once memory is written, fire conflicting writes,
	// hold the probabilistic-write pool, release cheapest-first.
	p, err := NewParametricFromString("adv:base=rr" +
		";rule:when=mem-written,do=fire-read" +
		";rule:when=mem-written,do=fire-conflict" +
		";rule:when=prob-pending,do=hold-prob" +
		";rule:when=always,do=fire-cheapest-prob")
	if err != nil {
		t.Fatal(err)
	}
	if p.MinPower() != LocationOblivious {
		t.Fatalf("MinPower = %s, want location-oblivious", p.MinPower())
	}
	p.Seed(xrand.New(1))
	n := 3
	v := &View{Power: LocationOblivious, N: n, Runnable: []int{0, 1, 2},
		Pending: make([]Op, n), Memory: []value.Value{value.None}}
	// Pool phase: hold back the probwrite, advance a reader.
	v.SetOp(0, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 5, ProbNum: 1, ProbDen: 4})
	v.SetOp(1, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	v.SetOp(2, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	if pid := p.Next(v); pid != 1 {
		t.Fatalf("pool phase chose %d, want reader 1", pid)
	}
	// Full pool: release the fewest-attempts probwrite.
	v.SetOp(1, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 6, ProbNum: 1, ProbDen: 4})
	v.SetOp(2, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 7, ProbNum: 1, ProbDen: 4})
	if pid := p.Next(v); v.Pending[pid].Kind != OpProbWrite {
		t.Fatalf("full pool chose %d, want a probwrite", pid)
	}
	// Memory written: witness reader first.
	v.Memory[0] = 5
	v.Changed = Change{Valid: true, Reg: 0, Old: value.None}
	v.SetOp(0, Op{Valid: true, Kind: OpRead, Reg: -1, Val: value.None})
	if pid := p.Next(v); pid != 0 {
		t.Fatalf("endgame chose %d, want witness reader 0", pid)
	}
	// No reader left: fire a conflicting write (value != 5), never the
	// 5-valued attempt.
	v.Changed = Change{}
	v.SetOp(0, Op{Valid: true, Kind: OpProbWrite, Reg: -1, Val: 5, ProbNum: 1, ProbDen: 4})
	if pid := p.Next(v); pid == 0 || v.Pending[pid].Val == 5 {
		t.Fatalf("endgame chose %d, want a conflicting probwrite", pid)
	}
}

func TestParametricSeedResetsState(t *testing.T) {
	p, err := NewParametricFromString("adv:base=rr;rule:when=all-prob,do=fire-cheapest-prob")
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	v := &View{Power: ValueOblivious, N: n, Runnable: []int{0, 1}, Pending: make([]Op, n)}
	v.SetOp(0, Op{Valid: true, Kind: OpProbWrite})
	v.SetOp(1, Op{Valid: true, Kind: OpProbWrite})
	run := func() []int {
		p.Seed(xrand.New(9))
		out := make([]int, 0, 4)
		for i := 0; i < 4; i++ {
			out = append(out, p.Next(v))
		}
		return out
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("executions diverge after re-Seed: %v vs %v", first, second)
	}
}

func TestParametricNameAndConfig(t *testing.T) {
	const config = "adv:power=value-oblivious,base=lockstep;rule:when=prob-pending,do=hold-prob"
	p, err := NewParametricFromString(config)
	if err != nil {
		t.Fatal(err)
	}
	if want := "parametric:" + config; p.Name() != want {
		t.Errorf("Name = %q, want %q", p.Name(), want)
	}
	cfg := p.Config()
	cfg.Rules[0].Do = ActFireProb // must not alias the scheduler's copy
	if p.cfg.Rules[0].Do != ActHoldProb {
		t.Error("Config() aliases internal rule slice")
	}
	// NewParametric copies the caller's slices too.
	in := ParamConfig{Base: BaseWeighted, Weights: []int{1, 2}}
	q, err := NewParametric(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Weights[0] = 99
	if q.weight(0) != 1 {
		t.Error("NewParametric aliases caller weight slice")
	}
}

func FuzzParseParametric(f *testing.F) {
	f.Add("adv:power=oblivious,base=rr")
	f.Add("adv:base=weighted,w=3:0:1,phase=8/2/4;rule:when=mem-written,do=fire-conflict")
	f.Add("adv:base=rr;rule:when=step-ge:100,do=lowest;rule:when=all-prob,do=fire-cheapest-prob")
	f.Add("adv:power=adaptive,base=random;rule:when=in-flight,do=fire-write")
	f.Add("adv:base=lockstep;rule:when=prob-pending,do=hold-prob")
	f.Add("rule:when=always,do=lowest")
	f.Add("adv:base=rr,w=-1")
	f.Add(";;;")
	f.Add("adv:base=rr,")
	f.Add("adv:base=rr;")
	f.Add("adv")
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseParametric(s)
		if err != nil {
			return // invalid inputs just need a clean rejection
		}
		canon := cfg.String()
		cfg2, err := ParseParametric(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("round-trip changed config:\n in  %#v\n out %#v", cfg, cfg2)
		}
		if canon2 := cfg2.String(); canon2 != canon {
			t.Fatalf("canonical form not stable: %q then %q", canon, canon2)
		}
	})
}
