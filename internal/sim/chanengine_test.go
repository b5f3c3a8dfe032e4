package sim

// This file preserves the pre-coroutine step engine — one goroutine per
// process, four channels per process state, a scheduler round-trip per step —
// exactly as it shipped, as a test-only reference implementation. It exists
// for two reasons:
//
//  1. Equivalence: TestEngineMatchesChanEngine runs the same (programs,
//     scheduler, seed) on both engines and diffs the traces event-by-event,
//     proving the coroutine rewrite is observationally indistinguishable.
//  2. Benchmarking: BenchmarkStepLoopChanEngine measures the old per-step
//     cost so the speedup claim in DESIGN.md is regenerated, not asserted.
//
// The code is a verbatim copy of the old sim.go/env.go with types renamed
// chan*; request/response/Config/Result and the trace semantics are shared
// with the production engine. One edit: crash thresholds come from the
// compiled injector in Config.Faults (its only fault kind read here), since
// Config no longer carries a crash map.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

type chanProcFailure struct {
	pid   int
	cause any
}

type chanProcState struct {
	reqCh   chan request
	respCh  chan response
	doneCh  chan value.Value
	failCh  chan chanProcFailure
	pending request
	hasOp   bool
	halted  bool
	crashed bool
	output  value.Value
}

// chanProgram is the old engine's program type; test bodies are written
// generically (see envLike in equiv_test.go) and instantiated for both.
type chanProgram func(e *chanEnv) value.Value

// chanRun is the old Run: one goroutine per process, channel handoff.
func chanRun(cfg Config, programs ...chanProgram) (*exec.Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: N=%d must be positive", cfg.N)
	}
	if cfg.File == nil {
		return nil, errors.New("sim: nil register file")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler")
	}
	switch len(programs) {
	case cfg.N:
	case 1:
		one := programs[0]
		programs = make([]chanProgram, cfg.N)
		for i := range programs {
			programs[i] = one
		}
	default:
		return nil, fmt.Errorf("sim: got %d programs for %d processes", len(programs), cfg.N)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	var ctxDone <-chan struct{}
	if cfg.Context != nil {
		ctxDone = cfg.Context.Done()
	}

	rt := &chanEngine{
		cfg:      cfg,
		power:    cfg.Scheduler.MinPower(),
		maxSteps: maxSteps,
		ctxDone:  ctxDone,
		states:   make([]*chanProcState, cfg.N),
		probSrc:  make([]*xrand.Source, cfg.N),
		killCh:   make(chan struct{}),
		result: &exec.Result{
			Outputs: make([]value.Value, cfg.N),
			Halted:  make([]bool, cfg.N),
			Crashed: make([]bool, cfg.N),
			Work:    make([]int, cfg.N),
		},
	}
	for pid := range rt.result.Outputs {
		rt.result.Outputs[pid] = value.None
	}

	root := xrand.New(cfg.Seed)
	cfg.Scheduler.Seed(root.Split(0))
	for pid := 0; pid < cfg.N; pid++ {
		rt.probSrc[pid] = root.Split(uint64(1_000_000 + pid))
		rt.states[pid] = &chanProcState{
			reqCh:  make(chan request, 1),
			respCh: make(chan response, 1),
			doneCh: make(chan value.Value, 1),
			failCh: make(chan chanProcFailure, 1),
		}
	}

	for pid := 0; pid < cfg.N; pid++ {
		env := &chanEnv{
			pid:    pid,
			n:      cfg.N,
			cheap:  cfg.CheapCollect,
			coins:  root.Split(uint64(1 + pid)),
			log:    cfg.Trace,
			st:     rt.states[pid],
			killCh: rt.killCh,
		}
		rt.wg.Add(1)
		go chanRunProcess(rt, pid, programs[pid], env)
	}

	err := rt.loop()
	rt.teardown()
	if rt.failure != nil {
		panic(rt.failure.cause)
	}
	return rt.result, err
}

func chanRunProcess(rt *chanEngine, pid int, prog chanProgram, env *chanEnv) {
	defer rt.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errKilled) {
				return
			}
			select {
			case rt.states[pid].failCh <- chanProcFailure{pid: pid, cause: r}:
			case <-rt.killCh:
			}
		}
	}()
	out := prog(env)
	select {
	case rt.states[pid].doneCh <- out:
	case <-rt.killCh:
	}
}

type chanEngine struct {
	cfg      Config
	power    sched.Power
	maxSteps int
	ctxDone  <-chan struct{}
	states   []*chanProcState
	probSrc  []*xrand.Source
	killCh   chan struct{}
	wg       sync.WaitGroup
	result   *exec.Result
	steps    int
	failure  *chanProcFailure

	runnableBuf []int
}

func (rt *chanEngine) loop() error {
	for pid := range rt.states {
		if !rt.waitNext(pid) {
			return nil
		}
	}
	view := &sched.View{Power: rt.power, N: rt.cfg.N}
	for {
		runnable := rt.collectRunnable()
		if len(runnable) == 0 {
			return nil
		}
		if rt.steps >= rt.maxSteps {
			return fmt.Errorf("%w (limit %d, scheduler %q)", exec.ErrStepLimit, rt.maxSteps, rt.cfg.Scheduler.Name())
		}
		if rt.ctxDone != nil {
			select {
			case <-rt.ctxDone:
				return fmt.Errorf("%w after %d steps: %w", exec.ErrCancelled, rt.steps, context.Cause(rt.cfg.Context))
			default:
			}
		}
		rt.buildView(view, runnable)
		pid := rt.cfg.Scheduler.Next(view)
		if pid < 0 || pid >= rt.cfg.N || !rt.states[pid].hasOp || rt.states[pid].crashed {
			panic(fmt.Sprintf("sim: scheduler %q chose non-runnable pid %d", rt.cfg.Scheduler.Name(), pid))
		}
		rt.execute(pid)
		if rt.failure != nil {
			return nil
		}
	}
}

func (rt *chanEngine) collectRunnable() []int {
	rt.runnableBuf = rt.runnableBuf[:0]
	for pid, st := range rt.states {
		if st.hasOp && !st.crashed && !st.halted {
			rt.runnableBuf = append(rt.runnableBuf, pid)
		}
	}
	return rt.runnableBuf
}

func (rt *chanEngine) execute(pid int) {
	st := rt.states[pid]
	req := st.pending
	st.hasOp = false
	file := rt.cfg.File

	var resp response
	ev := trace.Event{Step: rt.steps, PID: pid, Reg: int(req.reg), Val: req.val}
	switch req.kind {
	case sched.OpRead:
		resp.val = file.Load(req.reg)
		ev.Kind = trace.Read
		ev.Val = resp.val
	case sched.OpWrite:
		file.Store(req.reg, req.val)
		ev.Kind = trace.Write
	case sched.OpProbWrite:
		resp.ok = rt.probSrc[pid].Bernoulli(req.num, req.den)
		if resp.ok {
			file.Store(req.reg, req.val)
		}
		ev.Kind = trace.ProbWrite
		ev.Succeeded = resp.ok
		ev.ProbNum, ev.ProbDen = req.num, req.den
	case sched.OpCollect:
		resp.vals = file.Snapshot(req.arr)
		ev.Kind = trace.Collect
		ev.Reg = int(req.arr.Base)
	default:
		panic(fmt.Sprintf("sim: unknown op kind %v", req.kind))
	}
	rt.cfg.Trace.Append(ev)
	rt.result.Work[pid]++
	rt.result.TotalWork++
	rt.steps++

	if rt.result.Work[pid] >= rt.cfg.Faults.CrashAt(pid) {
		st.crashed = true
		rt.result.Crashed[pid] = true
		rt.cfg.Trace.Append(trace.Event{Step: -1, PID: pid, Kind: trace.Crash})
		return
	}

	st.respCh <- resp
	rt.waitNext(pid)
}

func (rt *chanEngine) waitNext(pid int) bool {
	st := rt.states[pid]
	select {
	case req := <-st.reqCh:
		st.pending = req
		st.hasOp = true
		return true
	case out := <-st.doneCh:
		st.halted = true
		st.output = out
		rt.result.Halted[pid] = true
		rt.result.Outputs[pid] = out
		rt.cfg.Trace.Append(trace.Event{Step: -1, PID: pid, Kind: trace.Halt, Val: out})
		return true
	case f := <-st.failCh:
		rt.failure = &f
		return false
	}
}

func (rt *chanEngine) buildView(view *sched.View, run []int) {
	view.Step = rt.steps
	view.Runnable = run
	if view.Pending == nil {
		view.Pending = make([]sched.Op, rt.cfg.N)
	}
	for pid := range view.Pending {
		view.Pending[pid] = sched.Op{}
	}
	for _, pid := range run {
		req := rt.states[pid].pending
		op := sched.Op{Valid: true, Reg: -1, Val: value.None}
		switch rt.power {
		case sched.Oblivious:
		case sched.ValueOblivious:
			op.Kind = req.kind
			op.Reg = req.reg
			if req.kind == sched.OpCollect {
				op.Reg = req.arr.Base
			}
		case sched.LocationOblivious:
			op.Kind = req.kind
			if req.kind == sched.OpWrite || req.kind == sched.OpProbWrite {
				op.Val = req.val
			}
			op.ProbNum, op.ProbDen = req.num, req.den
		case sched.Adaptive:
			op.Kind = req.kind
			op.Reg = req.reg
			if req.kind == sched.OpCollect {
				op.Reg = req.arr.Base
			}
			if req.kind == sched.OpWrite || req.kind == sched.OpProbWrite {
				op.Val = req.val
			}
			op.ProbNum, op.ProbDen = req.num, req.den
		default:
			panic(fmt.Sprintf("sim: unknown power %v", rt.power))
		}
		view.Pending[pid] = op
	}
	switch rt.power {
	case sched.LocationOblivious, sched.Adaptive:
		prev := view.Memory
		view.Memory = rt.cfg.File.Contents()
		view.Changed = diffMemory(prev, view.Memory)
	default:
		view.Memory = nil
	}
}

// diffMemory derives View.Changed the way an adversary holding two
// consecutive snapshots would: the one cell both hold that differs, with
// its value in prev. Cells past prev's end appeared by allocation, not by a
// write, so they are not a change; more than one differing cell means a step
// changed two registers, which the model forbids.
func diffMemory(prev, cur []value.Value) sched.Change {
	var ch sched.Change
	for i, old := range prev {
		if cur[i] == old {
			continue
		}
		if ch.Valid {
			panic(fmt.Sprintf("sim: one step changed registers %d and %d", ch.Reg, i))
		}
		ch = sched.Change{Valid: true, Reg: register.Reg(i), Old: old}
	}
	return ch
}

func (rt *chanEngine) teardown() {
	close(rt.killCh)
	rt.wg.Wait()
}

// chanEnv is the old process-side Env: publish on a channel, block on the
// response channel.
type chanEnv struct {
	pid    int
	n      int
	cheap  bool
	coins  *xrand.Source
	log    *trace.Log
	st     *chanProcState
	killCh chan struct{}
}

func (e *chanEnv) PID() int           { return e.pid }
func (e *chanEnv) N() int             { return e.n }
func (e *chanEnv) CheapCollect() bool { return e.cheap }

func (e *chanEnv) Read(r register.Reg) value.Value {
	resp := e.do(request{kind: sched.OpRead, reg: r})
	return resp.val
}

func (e *chanEnv) Write(r register.Reg, v value.Value) {
	e.do(request{kind: sched.OpWrite, reg: r, val: v})
}

func (e *chanEnv) ProbWrite(r register.Reg, v value.Value, num, den uint64) bool {
	resp := e.do(request{kind: sched.OpProbWrite, reg: r, val: v, num: num, den: den})
	return resp.ok
}

func (e *chanEnv) Collect(arr register.Array) []value.Value {
	if e.cheap {
		resp := e.do(request{kind: sched.OpCollect, arr: arr})
		return resp.vals
	}
	out := make([]value.Value, arr.Len)
	for i := 0; i < arr.Len; i++ {
		out[i] = e.Read(arr.At(i))
	}
	return out
}

func (e *chanEnv) CoinUint64() uint64 {
	v := e.coins.Uint64()
	e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Coin, Val: value.Value(int64(v >> 1))})
	return v
}

func (e *chanEnv) CoinBool() bool {
	v := e.coins.Bool()
	bit := value.Value(0)
	if v {
		bit = 1
	}
	e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Coin, Val: bit})
	return v
}

func (e *chanEnv) CoinIntn(n int) int {
	v := e.coins.Intn(n)
	e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Coin, Val: value.Value(v)})
	return v
}

func (e *chanEnv) MarkInvoke(label string, v value.Value) {
	e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Invoke, Label: label, Val: v})
}

func (e *chanEnv) MarkReturn(label string, d value.Decision) {
	e.log.Append(trace.Event{
		Step: -1, PID: e.pid, Kind: trace.Return,
		Label: label, Val: d.V, Decided: d.Decided,
	})
}

func (e *chanEnv) do(req request) response {
	select {
	case e.st.reqCh <- req:
	case <-e.killCh:
		panic(errKilled)
	}
	select {
	case resp := <-e.st.respCh:
		return resp
	case <-e.killCh:
		panic(errKilled)
	}
}
