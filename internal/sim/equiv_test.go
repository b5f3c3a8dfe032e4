package sim

// Trace-equivalence harness for the step-engine rewrite.
//
// The coroutine engine must be observationally indistinguishable from the
// channel engine it replaced: same (programs, scheduler, seed) ⇒ the same
// trace, event by event, and the same Result. Two tests enforce this:
//
//   - TestTraceGolden diffs the production engine against golden trace files
//     in testdata/, captured from the pre-rewrite channel engine. Regenerate
//     with `go test -run TestTraceGolden -update-golden` (only do this
//     deliberately: the goldens *are* the old engine's semantics).
//   - TestEngineMatchesChanEngine runs the preserved channel engine (see
//     chanengine_test.go) and the production engine side by side over a wider
//     seed sweep and diffs live.
//
// The test programs perform a shared-memory operation before any coin flip
// or trace annotation. This matters: the channel engine started all process
// goroutines concurrently, so free events emitted before a process's first
// shared-memory operation could land in the log in nondeterministic order.
// After the first operation both engines serialize everything, so programs
// of this shape have fully deterministic traces under either engine.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden trace files from the current engine")

// envLike is the program-facing surface shared by the production *Env and the
// preserved *chanEnv, so test bodies are written once and run on both.
type envLike interface {
	PID() int
	N() int
	CheapCollect() bool
	Read(register.Reg) value.Value
	Write(register.Reg, value.Value)
	ProbWrite(register.Reg, value.Value, uint64, uint64) bool
	Collect(register.Array) []value.Value
	CoinUint64() uint64
	CoinBool() bool
	CoinIntn(int) int
	MarkInvoke(string, value.Value)
	MarkReturn(string, value.Decision)
}

var (
	_ envLike = (*Env)(nil)
	_ envLike = (*chanEnv)(nil)
)

// equivBody exercises every operation kind: write, probwrite, read, collect,
// local coins, and invoke/return markers. The first action is a shared write
// (see the package comment above on why that must come first).
func equivBody(e envLike, a register.Array) value.Value {
	r := a.At(e.PID() % a.Len)
	e.Write(r, value.Value(e.PID()+1))
	e.MarkInvoke("equiv", value.Value(e.PID()))
	x := value.Value(0)
	for i := 0; i < 3; i++ {
		c := e.CoinIntn(8)
		e.ProbWrite(a.At((e.PID()+i)%a.Len), value.Value(c+1), 1, 2)
		x += e.Read(a.At(i % a.Len))
		vals := e.Collect(a)
		for _, v := range vals {
			if !v.IsNone() {
				x += v
			}
		}
		if e.CoinBool() {
			x++
		}
	}
	e.MarkReturn("equiv", value.Decide(x))
	return x
}

// firstMoverBody is one first-mover conciliator round: probabilistic writes
// of the process's own value until a read finds the register written. Its
// only writes are probabilistic, so a landed attempt is the first change an
// attack sees after arming, and the attack's schedule depends on the view
// reporting it.
func firstMoverBody(e envLike, a register.Array) value.Value {
	r := a.At(0)
	x := e.Read(r)
	for x.IsNone() {
		e.ProbWrite(r, value.Value(e.PID()+1), 1, 4)
		x = e.Read(r)
	}
	return x
}

type equivCase struct {
	name  string
	n     int
	regs  int
	cheap bool
	crash map[int]int
	mk    func() sched.Scheduler
	// body is the per-process program; nil means equivBody.
	body func(envLike, register.Array) value.Value
}

func (c equivCase) run(e envLike, a register.Array) value.Value {
	if c.body == nil {
		return equivBody(e, a)
	}
	return c.body(e, a)
}

// equivCases covers every adversary power class (the runtime builds views at
// the scheduler's MinPower, so each case exercises a distinct view-building
// path) plus crash injection, and a first-mover round under both attacks,
// whose schedules turn on the view reporting a landed probabilistic write.
func equivCases() []equivCase {
	return []equivCase{
		{name: "oblivious-uniform", n: 4, regs: 4, cheap: true,
			mk: func() sched.Scheduler { return sched.NewUniformRandom() }},
		{name: "oblivious-roundrobin-crash", n: 4, regs: 4, crash: map[int]int{1: 4, 3: 9},
			mk: func() sched.Scheduler { return sched.NewRoundRobin() }},
		{name: "value-oblivious-splitvote", n: 4, regs: 4,
			mk: func() sched.Scheduler { return sched.NewSplitVote() }},
		{name: "location-oblivious-firstmover", n: 4, regs: 4, cheap: true,
			mk: func() sched.Scheduler { return sched.NewFirstMoverAttack() }},
		{name: "location-oblivious-eager", n: 3, regs: 3,
			mk: func() sched.Scheduler { return sched.NewEagerWriteAttack() }},
		{name: "adaptive-spoiler", n: 4, regs: 4, cheap: true,
			mk: func() sched.Scheduler { return sched.NewAdaptiveSpoiler() }},
		{name: "location-oblivious-firstmover-round", n: 4, regs: 1, body: firstMoverBody,
			mk: func() sched.Scheduler { return sched.NewFirstMoverAttack() }},
		{name: "location-oblivious-eager-round", n: 4, regs: 1, body: firstMoverBody,
			mk: func() sched.Scheduler { return sched.NewEagerWriteAttack() }},
	}
}

func (c equivCase) config(t *testing.T, f *register.File, log *trace.Log, seed uint64) Config {
	return Config{
		N: c.n, File: f, Scheduler: c.mk(), Seed: seed,
		Trace: log, CheapCollect: c.cheap, Faults: crashes(t, c.n, c.crash),
	}
}

// runEquivNew runs the production engine on the case's body.
func runEquivNew(t *testing.T, c equivCase, seed uint64) (*exec.Result, *trace.Log) {
	t.Helper()
	f := register.NewFile()
	a := f.Alloc(c.regs, "arr")
	log := trace.New()
	res, err := Run(c.config(t, f, log, seed), func(e *Env) value.Value { return c.run(e, a) })
	if err != nil {
		t.Fatalf("%s: new engine: %v", c.name, err)
	}
	return res, log
}

// runEquivChan runs the preserved channel engine on the case's body.
func runEquivChan(t *testing.T, c equivCase, seed uint64) (*exec.Result, *trace.Log) {
	t.Helper()
	f := register.NewFile()
	a := f.Alloc(c.regs, "arr")
	log := trace.New()
	res, err := chanRun(c.config(t, f, log, seed), func(e *chanEnv) value.Value { return c.run(e, a) })
	if err != nil {
		t.Fatalf("%s: chan engine: %v", c.name, err)
	}
	return res, log
}

// diffTraces fails the test at the first event mismatch.
func diffTraces(t *testing.T, name string, want, got []trace.Event) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: trace diverges at event %d:\n  want: %s\n  got:  %s", name, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d, want %d (first %d events agree)", name, len(got), len(want), n)
	}
}

func diffResults(t *testing.T, name string, want, got *exec.Result) {
	t.Helper()
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Fatalf("%s: results differ:\n  want: %s\n  got:  %s", name, wj, gj)
	}
}

func goldenPaths(name string) (tracePath, resultPath string) {
	return filepath.Join("testdata", "equiv_"+name+".trace.json"),
		filepath.Join("testdata", "equiv_"+name+".result.json")
}

// TestTraceGolden locks the engine to the recorded semantics of the channel
// engine: same seed ⇒ bit-identical trace and Result.
func TestTraceGolden(t *testing.T) {
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			res, log := runEquivNew(t, c, 0xC0FFEE)
			tracePath, resultPath := goldenPaths(c.name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				tf, err := os.Create(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				if err := log.WriteJSON(tf); err != nil {
					t.Fatal(err)
				}
				if err := tf.Close(); err != nil {
					t.Fatal(err)
				}
				rj, err := json.MarshalIndent(res, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(resultPath, append(rj, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			tf, err := os.Open(tracePath)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to create): %v", err)
			}
			defer tf.Close()
			want, err := trace.ReadJSON(tf)
			if err != nil {
				t.Fatal(err)
			}
			diffTraces(t, c.name, want.Events(), log.Events())
			rj, err := os.ReadFile(resultPath)
			if err != nil {
				t.Fatal(err)
			}
			var wantRes exec.Result
			if err := json.Unmarshal(rj, &wantRes); err != nil {
				t.Fatal(err)
			}
			diffResults(t, c.name, &wantRes, res)
		})
	}
}

// TestEngineMatchesChanEngine diffs the production engine against the live
// channel engine over a seed sweep — broader coverage than the fixed-seed
// goldens, including schedulers' random streams.
func TestEngineMatchesChanEngine(t *testing.T) {
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 25; seed++ {
				wantRes, wantLog := runEquivChan(t, c, seed)
				gotRes, gotLog := runEquivNew(t, c, seed)
				name := fmt.Sprintf("%s/seed=%d", c.name, seed)
				diffTraces(t, name, wantLog.Events(), gotLog.Events())
				diffResults(t, name, wantRes, gotRes)
			}
		})
	}
}
