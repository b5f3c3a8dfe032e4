package core

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// fakeEnv is a minimal single-process Env for unit-testing compositions
// without the simulator.
type fakeEnv struct {
	file    *register.File
	pid, nn int
	invokes []string
	returns []string
}

func newFakeEnv() *fakeEnv { return &fakeEnv{file: register.NewFile(), nn: 1} }

func (f *fakeEnv) PID() int { return f.pid }
func (f *fakeEnv) N() int   { return f.nn }
func (f *fakeEnv) Read(r register.Reg) value.Value {
	return f.file.Load(r)
}
func (f *fakeEnv) Write(r register.Reg, v value.Value) { f.file.Store(r, v) }
func (f *fakeEnv) ProbWrite(r register.Reg, v value.Value, num, den uint64) bool {
	if num >= den {
		f.file.Store(r, v)
		return true
	}
	return false
}
func (f *fakeEnv) Collect(arr register.Array) []value.Value { return f.file.Snapshot(arr) }
func (f *fakeEnv) CheapCollect() bool                       { return true }
func (f *fakeEnv) CoinUint64() uint64                       { return 0 }
func (f *fakeEnv) CoinBool() bool                           { return false }
func (f *fakeEnv) CoinIntn(n int) int                       { return 0 }
func (f *fakeEnv) MarkInvoke(label string, v value.Value)   { f.invokes = append(f.invokes, label) }
func (f *fakeEnv) MarkReturn(label string, d value.Decision) {
	f.returns = append(f.returns, label)
}

var _ Env = (*fakeEnv)(nil)

// constObj returns a fixed decision regardless of input.
func constObj(name string, d value.Decision) Object {
	return Func{Name: name, F: func(Env, value.Value) value.Decision { return d }}
}

// addObj passes through, adding delta to the value, never deciding.
func addObj(name string, delta value.Value) Object {
	return Func{Name: name, F: func(_ Env, v value.Value) value.Decision {
		return value.Continue(v + delta)
	}}
}

func TestIdentity(t *testing.T) {
	e := newFakeEnv()
	d := (Identity{}).Invoke(e, 9)
	if d.Decided || d.V != 9 {
		t.Fatalf("Identity returned %s", d)
	}
	if (Identity{}).Label() != "identity" {
		t.Fatal("identity label")
	}
}

func TestComposeThreadsValues(t *testing.T) {
	e := newFakeEnv()
	c := Compose(addObj("a", 1), addObj("b", 10), addObj("c", 100))
	d := c.Invoke(e, 0)
	if d.Decided || d.V != 111 {
		t.Fatalf("composition returned %s, want (0, 111)", d)
	}
	if len(e.invokes) != 3 || len(e.returns) != 3 {
		t.Fatalf("marks: %v %v", e.invokes, e.returns)
	}
}

func TestComposeShortCircuitsOnDecision(t *testing.T) {
	// "A decision by X immediately terminates the composite object without
	// executing Y" (§3.2).
	e := newFakeEnv()
	executed := false
	tail := Func{Name: "tail", F: func(_ Env, v value.Value) value.Decision {
		executed = true
		return value.Continue(v)
	}}
	c := Compose(addObj("a", 1), constObj("d", value.Decide(42)), tail)
	d, idx := c.InvokeIndexed(e, 0)
	if !d.Decided || d.V != 42 {
		t.Fatalf("composition returned %s", d)
	}
	if idx != 1 {
		t.Fatalf("decided at index %d, want 1", idx)
	}
	if executed {
		t.Fatal("object after the decision was executed")
	}
}

func TestComposeAssociativity(t *testing.T) {
	// ((X; Y); Z) behaves exactly like (X; (Y; Z)) (§3.2).
	mk := func() (Object, Object, Object) {
		return addObj("x", 1), addObj("y", 2), addObj("z", 4)
	}
	x, y, z := mk()
	left := Compose(Compose(x, y), z)
	x2, y2, z2 := mk()
	right := Compose(x2, Compose(y2, z2))
	for _, input := range []value.Value{0, 5, 100} {
		dl := left.Invoke(newFakeEnv(), input)
		dr := right.Invoke(newFakeEnv(), input)
		if dl != dr {
			t.Fatalf("input %s: left %s != right %s", input, dl, dr)
		}
	}
	if left.Len() != 3 || right.Len() != 3 {
		t.Fatalf("flattening failed: %d, %d", left.Len(), right.Len())
	}
}

func TestComposeExhaustionReportsMinusOne(t *testing.T) {
	e := newFakeEnv()
	c := Compose(addObj("a", 1))
	d, idx := c.InvokeIndexed(e, 1)
	if d.Decided || d.V != 2 || idx != -1 {
		t.Fatalf("got %s at %d", d, idx)
	}
}

func TestComposeLabelAndAt(t *testing.T) {
	c := Compose(addObj("a", 0), addObj("b", 0))
	if c.Label() != "(a; b)" {
		t.Fatalf("label %q", c.Label())
	}
	if c.At(1).Label() != "b" {
		t.Fatalf("At(1) = %q", c.At(1).Label())
	}
}

// decideAt builds a Builder whose object decides iff index == target stage.
func decideAt(target int, calls *[]int) Builder {
	return func(_ *register.File, index int) Object {
		return Func{Name: labelFor("T", index), F: func(_ Env, v value.Value) value.Decision {
			*calls = append(*calls, index)
			if index == target {
				return value.Decide(v)
			}
			return value.Continue(v)
		}}
	}
}

func labelFor(prefix string, index int) string {
	if index < 0 {
		return prefix + "-1"
	}
	return prefix + string(rune('0'+index))
}

func TestProtocolValidation(t *testing.T) {
	file := register.NewFile()
	rb := func(f *register.File, i int) Object { return Identity{} }
	cases := []Options{
		{N: 0, File: file, NewRatifier: rb, Stages: 1},
		{N: 1, File: nil, NewRatifier: rb, Stages: 1},
		{N: 1, File: file, NewRatifier: nil, Stages: 1},
		{N: 1, File: file, NewRatifier: rb, Stages: -1},
		{N: 1, File: file, NewRatifier: rb}, // nothing to run
	}
	for i, opts := range cases {
		if _, err := NewProtocol(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestProtocolChainLayout(t *testing.T) {
	file := register.NewFile()
	var calls []int
	p, err := NewProtocol(Options{
		N: 1, File: file,
		NewRatifier:    decideAt(999, &calls),
		NewConciliator: func(_ *register.File, i int) Object { return addObj(labelFor("C", i), 0) },
		Stages:         3,
		FastPath:       true,
		Fallback:       constObj("K", value.Decide(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// R-1, R0, C1, R1, C2, R2, C3, R3, K = 9 objects.
	if p.Len() != 9 {
		t.Fatalf("chain length %d, want 9", p.Len())
	}
}

func TestProtocolFastPathDecision(t *testing.T) {
	file := register.NewFile()
	var calls []int
	p, err := NewProtocol(Options{
		N: 1, File: file,
		NewRatifier: decideAt(-1, &calls), // decide in R-1
		Stages:      2,
		NewConciliator: func(_ *register.File, i int) Object {
			return addObj(labelFor("C", i), 0)
		},
		FastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, ok := p.Run(newFakeEnv(), 7)
	if !ok || out != 7 {
		t.Fatalf("Run = %s, %v", out, ok)
	}
	stage, fb := p.DecidedStage(0)
	if stage != 0 || fb {
		t.Fatalf("DecidedStage = %d fallback=%v, want 0", stage, fb)
	}
	if p.DecidedIndex(0) != 0 {
		t.Fatalf("DecidedIndex = %d", p.DecidedIndex(0))
	}
}

func TestProtocolStageNumbers(t *testing.T) {
	file := register.NewFile()
	var calls []int
	p, err := NewProtocol(Options{
		N: 1, File: file,
		NewRatifier: decideAt(2, &calls), // decide in R2
		NewConciliator: func(_ *register.File, i int) Object {
			return addObj(labelFor("C", i), 0)
		},
		Stages:   3,
		FastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, ok := p.Run(newFakeEnv(), 3)
	if !ok || out != 3 {
		t.Fatalf("Run = %s %v", out, ok)
	}
	if stage, fb := p.DecidedStage(0); stage != 2 || fb {
		t.Fatalf("DecidedStage = %d fb=%v, want 2", stage, fb)
	}
}

func TestProtocolFallback(t *testing.T) {
	file := register.NewFile()
	var calls []int
	p, err := NewProtocol(Options{
		N: 1, File: file,
		NewRatifier: decideAt(999, &calls), // never decides
		Stages:      2,
		Fallback:    constObj("K", value.Decide(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, ok := p.Run(newFakeEnv(), 11)
	if !ok || out != 11 {
		t.Fatalf("Run = %s %v", out, ok)
	}
	if stage, fb := p.DecidedStage(0); !fb || stage != -1 {
		t.Fatalf("DecidedStage = %d fb=%v, want fallback", stage, fb)
	}
}

func TestProtocolExhaustion(t *testing.T) {
	file := register.NewFile()
	var calls []int
	p, err := NewProtocol(Options{
		N: 1, File: file,
		NewRatifier: decideAt(999, &calls),
		Stages:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, ok := p.Run(newFakeEnv(), 4)
	if ok {
		t.Fatal("exhausted chain reported a decision")
	}
	if out != 4 {
		t.Fatalf("carried value %s", out)
	}
	if stage, _ := p.DecidedStage(0); stage != -1 {
		t.Fatalf("DecidedStage = %d for undecided", stage)
	}
}

// TestProtocolRunRecordsEveryCall: Run overwrites the calling process's
// decided-at record on every call, so a call that exhausts the chain clears
// the index an earlier deciding call left behind.
func TestProtocolRunRecordsEveryCall(t *testing.T) {
	p, err := NewProtocol(Options{
		N: 1, File: register.NewFile(),
		NewRatifier: func(_ *register.File, i int) Object {
			return Func{Name: labelFor("R", i), F: func(_ Env, v value.Value) value.Decision {
				if v == 0 {
					return value.Decide(v)
				}
				return value.Continue(v)
			}}
		},
		Stages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Run(newFakeEnv(), 0); !ok || p.DecidedIndex(0) != 0 {
		t.Fatalf("deciding run: ok=%v DecidedIndex=%d, want true, 0", ok, p.DecidedIndex(0))
	}
	if _, ok := p.Run(newFakeEnv(), 1); ok || p.DecidedIndex(0) != -1 {
		t.Fatalf("exhausted run: ok=%v DecidedIndex=%d, want false, -1", ok, p.DecidedIndex(0))
	}
}

func TestProtocolDefaultStages(t *testing.T) {
	file := register.NewFile()
	var calls []int
	p, err := NewProtocol(Options{
		N: 1, File: file,
		NewRatifier:    decideAt(1, &calls),
		NewConciliator: func(_ *register.File, i int) Object { return Identity{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2*DefaultStages {
		t.Fatalf("chain length %d, want %d", p.Len(), 2*DefaultStages)
	}
}

func TestProtocolRatifierOnlyLayout(t *testing.T) {
	file := register.NewFile()
	var calls []int
	p, err := NewProtocol(Options{
		N: 1, File: file,
		NewRatifier: decideAt(3, &calls),
		Stages:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Fatalf("chain length %d, want 5", p.Len())
	}
	out, ok := p.Run(newFakeEnv(), 2)
	if !ok || out != 2 {
		t.Fatalf("Run = %s %v", out, ok)
	}
	if stage, fb := p.DecidedStage(0); stage != 3 || fb {
		t.Fatalf("DecidedStage = %d, want 3", stage)
	}
}
