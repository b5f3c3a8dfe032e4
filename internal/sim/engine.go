package sim

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"time"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// Engine is a reusable simulator for one (programs, scheduler, config)
// cell: the per-trial extension of the step loop's zero-allocation
// contract. NewEngine pays construction once — register image, scheduler
// views, per-process RNG streams, and the process coroutines themselves —
// and Reset rewinds all of it in place, so a warmed-up engine runs whole
// trials without allocating.
//
// Usage is strictly Reset-then-Run, once per trial:
//
//	eng, err := NewEngine(cfg, programs...)
//	defer eng.Close()
//	for _, seed := range seeds {
//		eng.Reset(seed, injector) // injector may be nil
//		res, err := eng.Run(ctx)  // res is engine-owned: copy what escapes
//	}
//
// Engine.Run(ctx) with seed s is bit-identical to Run(cfg with Seed: s,
// Context: ctx) — same results, same traces — which the reuse-equivalence
// tests pin against the golden fixtures. cfg.Seed, cfg.Faults, and
// cfg.Context are ignored by NewEngine; they are per-trial inputs and
// arrive through Reset and Run instead. cfg.Scheduler is the engine's
// adversary until SetScheduler installs another for later trials.
//
// Process coroutines persist across trials: after its program returns, a
// coroutine parks on a sentinel yield instead of exiting, and the next
// trial resumes it around the loop. Coroutines left suspended mid-trial
// (step limit, cancellation, crash, stall) are unwound by the next Reset
// through an abort response that panics out of the pending Env call and is
// recovered at the trial boundary.
//
// If a trial panics (a program bug, a scheduler contract violation), the
// engine is poisoned: the panic propagates to the caller, and every later
// Reset or Run reports exec.ErrSessionPoisoned. A poisoned engine must be
// Closed and replaced — pools discard it rather than reuse it.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	cfg      Config
	power    sched.Power
	maxSteps int
	procs    []proc
	programs []Program

	// image is the register file's post-construction contents; Reset
	// restores it so trial k+1 sees exactly the memory trial k started
	// from, Inits included.
	image []value.Value

	// Per-trial RNG streams, reseeded in place by Reset with the shared
	// exec derivation (same streams a fresh run would build).
	root     xrand.Source
	schedSrc xrand.Source
	coinSrc  []xrand.Source
	probSrc  []xrand.Source

	// Register-semantics state, allocated only under register.Regular: semSrc
	// is the shared schedule-ordered stream that resolves overlapping reads
	// (derived by Reset only when needed, so atomic trials draw exactly the
	// streams they always did), and invVal[pid] snapshots the target's value
	// at the moment pid *invokes* a read. If the register changed by the time
	// the read executes, the read overlapped a write and semSrc decides
	// old-or-new. A write that restores the invocation value (ABA) counts as
	// no overlap — the model tracks values, not write events, a deliberate
	// modeling choice documented in ARCHITECTURE.md.
	sem    register.Semantics
	semSrc xrand.Source
	invVal []value.Value

	// crashAt is the per-trial copy of the injector's crash thresholds
	// (fault.Never when fault-free). stallAt/stepCrashAt are valid only
	// while faulty.
	crashAt     []int
	stallAt     []int
	stepCrashAt []int

	inj      *fault.Injector
	faulty   bool
	needCtx  bool
	stalledN int

	result     *exec.Result
	stalledBuf []bool
	steps      int

	// meter, when non-nil, is ticked once per executed operation. The nil
	// check is the whole disabled cost — same pattern as rt.faulty.
	meter *obs.Meter

	ctx     context.Context
	ctxDone <-chan struct{}

	// The scheduler view is maintained incrementally: exactly one process
	// changes state per step, so runnable (ascending pids) and view.Pending
	// are patched in O(1) amortized instead of rebuilt in O(n). The slices
	// are engine-owned and reused every step; schedulers may read them only
	// for the duration of one Next call (see the contract on sched.View).
	view     sched.View
	runnable []int
	// collectBuf backs cheap-collect responses, reused every step.
	collectBuf []value.Value

	armed    bool
	poisoned bool
	closed   bool
}

// NewEngine validates cfg, broadcasts programs (1 or N), snapshots the
// register file's initial image, and spawns the persistent process
// coroutines. cfg.Seed, cfg.Faults, and cfg.Context are ignored (per-trial;
// see Reset and Run).
func NewEngine(cfg Config, programs ...Program) (*Engine, error) {
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
		ps := make([]Program, cfg.N)
		copy(ps, programs)
		programs = ps
	case 1:
		one := programs[0]
		programs = make([]Program, cfg.N)
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
	switch cfg.Registers {
	case register.Atomic, register.Regular, register.Interposed:
	default:
		return nil, fmt.Errorf("sim: unknown register semantics %v", cfg.Registers)
	}
	// Stamp the model on the file so trace/error strings self-describe which
	// semantics produced them (a no-op for atomic: names stay byte-identical).
	cfg.File.SetSemantics(cfg.Registers)
	eng := &Engine{
		cfg:         cfg,
		maxSteps:    maxSteps,
		procs:       make([]proc, cfg.N),
		programs:    programs,
		image:       cfg.File.Contents(),
		coinSrc:     make([]xrand.Source, cfg.N),
		probSrc:     make([]xrand.Source, cfg.N),
		crashAt:     make([]int, cfg.N),
		stallAt:     make([]int, cfg.N),
		stepCrashAt: make([]int, cfg.N),
		result:      exec.NewResult(cfg.N),
		stalledBuf:  make([]bool, cfg.N),
		meter:       cfg.Meter,
		runnable:    make([]int, 0, cfg.N),
		sem:         cfg.Registers,
	}
	if cfg.Registers == register.Regular {
		eng.invVal = make([]value.Value, cfg.N)
	}
	eng.view = sched.View{Semantics: cfg.Registers, N: cfg.N, Pending: make([]sched.Op, cfg.N)}
	eng.result.Trace = cfg.Trace
	for pid := 0; pid < cfg.N; pid++ {
		eng.spawn(pid)
	}
	return eng, nil
}

// spawn creates pid's persistent coroutine. The body loops one program run
// per trial, parking on a sentinel yield between trials; a fresh coroutine
// counts as parked (its body has not started). A panic other than the
// engine's own sentinels propagates to whichever engine call resumed the
// coroutine — and from there out of Run with its original value.
func (eng *Engine) spawn(pid int) {
	p := &eng.procs[pid]
	env := &Env{
		pid:   pid,
		n:     eng.cfg.N,
		cheap: eng.cfg.CheapCollect,
		coins: &eng.coinSrc[pid],
		log:   eng.cfg.Trace,
		resp:  &p.resp,
	}
	prog := eng.programs[pid]
	p.parked = true
	p.next, p.stop = iter.Pull(func(yield func(request) bool) {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, errKilled) {
					return
				}
				panic(r)
			}
		}()
		env.yield = yield
		for {
			if out, completed := runProgram(env, prog); completed {
				p.halted = true
				p.output = out
			}
			// Park until the engine starts the next trial; a false yield
			// means Close is tearing the coroutine down while parked.
			if !yield(request{park: true}) {
				return
			}
		}
	})
}

// runProgram runs one trial of prog, converting the engine's reset-abort
// into a clean (uncompleted) return. Teardown (errKilled) and genuine
// program panics keep unwinding as panics.
func runProgram(env *Env, prog Program) (out value.Value, completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errTrialAbort) {
				completed = false
				return
			}
			panic(r)
		}
	}()
	return prog(env), true
}

// Reset rewinds the engine to run one trial with the given seed and
// compiled fault injector (nil for a fault-free trial), reusing every
// buffer in place: it aborts coroutines left mid-trial, restores the
// register image, rewinds the injector's and the engine's RNG streams,
// re-seeds the scheduler (which clears the scheduler's own state — see the
// sched.Scheduler contract), and zeroes the result. The injector is
// reseeded to seed, so its fault streams match fault.Compile(plan, n, seed)
// whatever seed it was originally compiled with.
func (eng *Engine) Reset(seed uint64, faults *fault.Injector) error {
	if eng.closed {
		return errors.New("sim: Reset on closed engine")
	}
	if eng.poisoned {
		return exec.ErrSessionPoisoned
	}
	// Unwind coroutines the previous trial left suspended mid-program
	// (step limit, cancellation, crash, stall): the abort response panics
	// out of their pending Env call and is recovered at the trial
	// boundary, after which the coroutine parks. A coroutine that does
	// anything else on abort (a program defer issuing operations while
	// unwinding) poisons the engine.
	for pid := range eng.procs {
		p := &eng.procs[pid]
		if p.parked {
			continue
		}
		p.resp = response{abort: true}
		req, ok := p.next()
		if !ok || !req.park {
			eng.poisoned = true
			return fmt.Errorf("sim: process %d did not unwind cleanly on reset: %w", pid, exec.ErrSessionPoisoned)
		}
		p.parked = true
	}
	// Restore the shared registers to their post-construction image.
	if err := eng.cfg.File.Restore(eng.image); err != nil {
		eng.poisoned = true
		return fmt.Errorf("sim: %v: %w", err, exec.ErrSessionPoisoned)
	}
	// Install and rewind the fault plane. Thresholds are seed-independent;
	// only the delay/lost-coin streams depend on the seed.
	eng.inj = faults
	eng.faulty = faults != nil
	eng.needCtx = faults.HasStall()
	faults.Reseed(seed)
	for pid := 0; pid < eng.cfg.N; pid++ {
		eng.crashAt[pid] = faults.CrashAt(pid)
		if eng.faulty {
			eng.stallAt[pid] = faults.StallAt(pid)
			eng.stepCrashAt[pid] = faults.CrashStep(pid)
		}
	}
	// Rewind every RNG stream in place. Split never advances its parent,
	// so derivation order is immaterial and these states are bit-identical
	// to the ones a fresh run builds with Split.
	eng.root.Reseed(seed)
	eng.root.SplitInto(&eng.schedSrc, 0)
	eng.cfg.Scheduler.Seed(&eng.schedSrc)
	// Views are built at the installed scheduler's power (see SetScheduler).
	eng.power = eng.cfg.Scheduler.MinPower()
	eng.view.Power = eng.power
	for pid := 0; pid < eng.cfg.N; pid++ {
		exec.ProcCoinsInto(&eng.coinSrc[pid], &eng.root, pid)
		exec.ProcProbInto(&eng.probSrc[pid], &eng.root, pid)
	}
	// The semantics stream exists only under Regular; atomic trials derive
	// exactly the streams they always did (Split never advances the parent,
	// so skipping the derivation keeps them bit-identical).
	if eng.sem == register.Regular {
		exec.SemCoinsInto(&eng.semSrc, &eng.root)
	}
	// Clear per-trial process, result, trace, and view state.
	for pid := range eng.procs {
		p := &eng.procs[pid]
		p.resp = response{}
		p.pending = request{}
		p.hasOp = false
		p.halted = false
		p.crashed = false
		p.stalled = false
		p.output = value.None
	}
	res := eng.result
	for pid := range res.Outputs {
		res.Outputs[pid] = value.None
		res.Halted[pid] = false
		res.Crashed[pid] = false
		res.Work[pid] = 0
	}
	res.TotalWork = 0
	res.Steps = 0
	// Stalled stays nil for stall-free trials so results marshal
	// identically to the golden fixtures (the slice is engine-owned and
	// merely re-zeroed when stall faults are in play).
	res.Stalled = nil
	if eng.needCtx {
		for i := range eng.stalledBuf {
			eng.stalledBuf[i] = false
		}
		res.Stalled = eng.stalledBuf
	}
	eng.cfg.Trace.Reset()
	eng.steps = 0
	eng.stalledN = 0
	for i := range eng.view.Pending {
		eng.view.Pending[i] = sched.Op{}
	}
	eng.view.Step = 0
	eng.view.Memory = nil
	eng.view.Changed = sched.Change{}
	eng.runnable = eng.runnable[:0]
	eng.armed = true
	return nil
}

// SetScheduler installs s as the adversary of the trials armed by later
// Resets, which seed it and build its views at its MinPower. A caller that
// holds a fresh scheduler per execution (Solve) reuses one engine this way;
// the result is the one an engine constructed with s would return. Such a
// caller installs nil after each trial, so the idle engine keeps no
// reference to its scheduler; Reset needs a non-nil one.
func (eng *Engine) SetScheduler(s sched.Scheduler) { eng.cfg.Scheduler = s }

// Run executes the trial armed by the last Reset and returns the
// engine-owned result: its slices and trace are invalidated by the next
// Reset, so callers that retain anything across trials must deep-copy
// first. ctx, if non-nil, cancels the execution between scheduled
// operations; trials whose injector contains stall faults require one.
// Each Reset arms exactly one Run.
func (eng *Engine) Run(ctx context.Context) (*exec.Result, error) {
	if eng.closed {
		return nil, errors.New("sim: Run on closed engine")
	}
	if eng.poisoned {
		return nil, exec.ErrSessionPoisoned
	}
	if !eng.armed {
		return nil, errors.New("sim: Run before Reset (arm each trial with Reset(seed, faults))")
	}
	eng.armed = false
	if eng.needCtx && ctx == nil {
		return nil, errors.New("sim: stall faults require a Context (a stalled process never halts; only cancellation ends the execution)")
	}
	eng.ctx = ctx
	eng.ctxDone = nil
	if ctx != nil {
		eng.ctxDone = ctx.Done()
	}
	// A panic anywhere below — a program panic, a scheduler contract
	// violation — escapes with coroutines and buffers in an unknown state;
	// flag the engine pessimistically and clear on the normal return path.
	eng.poisoned = true
	// Gather the initial pending operation (or immediate halt) of each
	// process, in pid order. Threshold 0 fires before the first operation:
	// the process crashes or stalls having done nothing at all, and its
	// coroutine is not resumed this trial.
	for pid := range eng.procs {
		if eng.crashAt[pid] <= 0 {
			eng.crash(pid)
			continue
		}
		if eng.faulty && eng.stallAt[pid] <= 0 {
			eng.stall(pid)
			continue
		}
		eng.resume(pid)
	}
	for pid := range eng.procs {
		p := &eng.procs[pid]
		if p.hasOp && !p.crashed && !p.halted {
			eng.runnable = append(eng.runnable, pid)
			eng.view.Pending[pid] = eng.restrictOp(p.pending)
		}
	}
	err := eng.loop()
	eng.result.Steps = eng.steps
	eng.ctx, eng.ctxDone = nil, nil // an idle engine keeps no caller's context
	eng.poisoned = false
	return eng.result, err
}

// Close unwinds every coroutine and retires the engine. Suspended or parked
// processes see their pending Env call or parking yield fail and exit
// through the errKilled sentinel; Close is the pooled analogue of the
// one-shot Run's deferred teardown and must be called exactly once per
// engine (later calls are no-ops).
func (eng *Engine) Close() error {
	if eng.closed {
		return nil
	}
	eng.closed = true
	for pid := range eng.procs {
		p := &eng.procs[pid]
		if p.stop != nil {
			p.stop()
		}
	}
	return nil
}

// loop drives the armed trial to completion or to the step limit.
func (rt *Engine) loop() error {
	seesMemory := rt.power == sched.LocationOblivious || rt.power == sched.Adaptive
	for {
		if len(rt.runnable) == 0 {
			if rt.stalledN == 0 {
				return nil // every process halted or crashed
			}
			// Only stalled processes remain: the execution can never finish
			// on its own (the livelock a deadline watchdog exists to catch).
			// Block until cancellation; Run validated that a context exists
			// whenever stall faults do.
			if rt.ctxDone == nil {
				return fmt.Errorf("sim: %d process(es) stalled with no context to interrupt the execution", rt.stalledN)
			}
			<-rt.ctxDone
			return fmt.Errorf("%w after %d steps (%d process(es) stalled): %w", exec.ErrCancelled, rt.steps, rt.stalledN, context.Cause(rt.ctx))
		}
		if rt.steps >= rt.maxSteps {
			return fmt.Errorf("%w (limit %d, scheduler %q)", exec.ErrStepLimit, rt.maxSteps, rt.cfg.Scheduler.Name())
		}
		if rt.ctxDone != nil {
			select {
			case <-rt.ctxDone:
				return fmt.Errorf("%w after %d steps: %w", exec.ErrCancelled, rt.steps, context.Cause(rt.ctx))
			default:
			}
		}
		rt.view.Step = rt.steps
		rt.view.Runnable = rt.runnable
		if seesMemory {
			// Fetched every step: a protocol that allocates registers
			// mid-run (core.Unbounded) moves the cells.
			rt.view.Memory = rt.cfg.File.Cells()
		}
		pid := rt.cfg.Scheduler.Next(&rt.view)
		if pid < 0 || pid >= rt.cfg.N || !rt.procs[pid].hasOp || rt.procs[pid].crashed {
			panic(fmt.Sprintf("sim: scheduler %q chose non-runnable pid %d", rt.cfg.Scheduler.Name(), pid))
		}
		if seesMemory {
			rt.view.Changed = rt.executeSeen(pid)
		} else {
			rt.execute(pid)
		}
		// Patch the view entry of the one process that moved.
		p := &rt.procs[pid]
		if p.hasOp && !p.crashed && !p.halted {
			rt.view.Pending[pid] = rt.restrictOp(p.pending)
		} else {
			rt.view.Pending[pid] = sched.Op{}
			rt.dropRunnable(pid)
		}
	}
}

// dropRunnable removes pid from the ascending runnable list (called only
// when a process halts or crashes, so the O(n) shift is off the per-step
// path).
func (rt *Engine) dropRunnable(pid int) {
	for i, p := range rt.runnable {
		if p == pid {
			rt.runnable = append(rt.runnable[:i], rt.runnable[i+1:]...)
			return
		}
	}
}

// executeSeen is execute for the adversaries that see memory: it also
// returns the register pid's operation changed, with its old value, for the
// next view's Changed. Only a write or a successful probabilistic write can
// change a register, and only to a value it does not already hold.
func (rt *Engine) executeSeen(pid int) sched.Change {
	req := rt.procs[pid].pending
	if req.kind != sched.OpWrite && req.kind != sched.OpProbWrite {
		rt.execute(pid)
		return sched.Change{}
	}
	old := rt.cfg.File.Load(req.reg)
	rt.execute(pid)
	if rt.cfg.File.Load(req.reg) == old {
		return sched.Change{}
	}
	return sched.Change{Valid: true, Reg: req.reg, Old: old}
}

// execute applies pid's pending operation, then resumes pid's coroutine to
// obtain its next request (unless pid crashes at this step).
func (rt *Engine) execute(pid int) {
	p := &rt.procs[pid]
	req := p.pending
	p.hasOp = false
	file := rt.cfg.File
	traced := rt.cfg.Trace != nil

	var resp response
	switch req.kind {
	case sched.OpRead:
		resp.val = file.Load(req.reg)
		if rt.sem == register.Regular && resp.val != rt.invVal[pid] {
			// The register changed between this read's invocation and its
			// execution: under regular semantics the read overlapped the
			// write(s) and may legally return the old value. One coin from
			// the shared schedule-ordered stream decides, so the outcome is
			// a pure function of (schedule, seed).
			if rt.semSrc.Bool() {
				resp.val = rt.invVal[pid]
			}
		}
	case sched.OpWrite:
		file.Store(req.reg, req.val)
	case sched.OpProbWrite:
		resp.ok = rt.probSrc[pid].Bernoulli(req.num, req.den)
		if rt.faulty && rt.inj.LoseCoin(pid) {
			// The coin is lost in flight: the process's own coin stream was
			// consumed exactly as in a fault-free run (so no-loss draws stay
			// bit-identical), but the write is suppressed and reported
			// failed. Safe degradation — it can only slow termination.
			resp.ok = false
		}
		if resp.ok {
			file.Store(req.reg, req.val)
		}
	case sched.OpCollect:
		rt.collectBuf = file.SnapshotAppend(rt.collectBuf[:0], req.arr)
		resp.vals = rt.collectBuf
	default:
		panic(fmt.Sprintf("sim: unknown op kind %v", req.kind))
	}
	if traced {
		ev := trace.Event{Step: rt.steps, PID: pid, Reg: int(req.reg), Val: req.val}
		switch req.kind {
		case sched.OpRead:
			ev.Kind = trace.Read
			ev.Val = resp.val
		case sched.OpWrite:
			ev.Kind = trace.Write
		case sched.OpProbWrite:
			ev.Kind = trace.ProbWrite
			ev.Succeeded = resp.ok
			ev.ProbNum, ev.ProbDen = req.num, req.den
		case sched.OpCollect:
			ev.Kind = trace.Collect
			ev.Reg = int(req.arr.Base)
		}
		rt.cfg.Trace.Append(ev)
	}
	rt.result.Work[pid]++
	rt.result.TotalWork++
	rt.steps++
	if rt.meter != nil {
		rt.meter.AddSteps(1)
	}

	if rt.faulty {
		if d := rt.inj.OpDelay(pid); d > 0 {
			// Per-op jitter: the engine is single-threaded, so sleeping here
			// slows the whole (simulated) execution — meaningful for wall
			// clock stress, invisible to the step-count cost model.
			time.Sleep(d)
		}
	}

	// Crash checks run after the operation lands: the last operation takes
	// effect, but the process never observes the result and is never
	// scheduled again; its coroutine stays suspended until the next Reset
	// (or Close) unwinds it. rt.steps is now the 1-based global index of
	// this operation, which is what the crash-on-round thresholds are
	// compiled against.
	if rt.result.Work[pid] >= rt.crashAt[pid] || (rt.faulty && rt.steps >= rt.stepCrashAt[pid]) {
		rt.crash(pid)
		return
	}
	if rt.faulty && rt.result.Work[pid] >= rt.stallAt[pid] {
		rt.stall(pid)
		return
	}

	p.resp = resp
	rt.resume(pid)
}

// crash marks pid crashed. Called either after its last operation landed or
// before its first (threshold 0).
func (rt *Engine) crash(pid int) {
	rt.procs[pid].crashed = true
	rt.result.Crashed[pid] = true
	if rt.cfg.Trace != nil {
		rt.cfg.Trace.Append(trace.Event{Step: -1, PID: pid, Kind: trace.Crash})
	}
}

// stall freezes pid: unlike a crash it is not reported as failed — the
// process holds its state forever and simply never takes another step, the
// classic livelock a deadline watchdog has to catch. Its coroutine stays
// suspended until the next Reset aborts it.
func (rt *Engine) stall(pid int) {
	rt.procs[pid].stalled = true
	rt.result.Stalled[pid] = true
	rt.stalledN++
}

// resume transfers control into pid's coroutine and records what comes
// back: the next pending operation, or the parking yield a program that
// just returned leaves its coroutine on (recorded as the process's halt). A
// program panic propagates out of p.next (and out of Run) with its original
// value.
func (rt *Engine) resume(pid int) {
	p := &rt.procs[pid]
	req, ok := p.next()
	if !ok {
		// The body can only return through Close's teardown, never while a
		// trial is driving it.
		panic(fmt.Sprintf("sim: process %d coroutine exited mid-trial", pid))
	}
	if req.park {
		// The program returned and parked its coroutine for the next trial;
		// p.halted and p.output were set by the coroutine before parking.
		p.parked = true
		if p.halted {
			rt.result.Halted[pid] = true
			rt.result.Outputs[pid] = p.output
			if rt.cfg.Trace != nil {
				rt.cfg.Trace.Append(trace.Event{Step: -1, PID: pid, Kind: trace.Halt, Val: p.output})
			}
		}
		return
	}
	p.pending = req
	p.hasOp = true
	p.parked = false
	if rt.sem == register.Regular && req.kind == sched.OpRead {
		// Snapshot the target at invocation time: the read's execution
		// compares against this to detect an overlapping write.
		rt.invVal[pid] = rt.cfg.File.Load(req.reg)
	}
}

// restrictOp projects a pending request down to what rt.power permits the
// adversary to observe (§2.1).
func (rt *Engine) restrictOp(req request) sched.Op {
	op := sched.Op{Valid: true, Reg: -1, Val: value.None}
	switch rt.power {
	case sched.Oblivious:
		// Liveness only.
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
	if rt.sem != register.Atomic {
		// Non-atomic models surface the invocation/execution window to any
		// adversary that may see operation kinds: a pending write is exactly
		// the overlap a regular register lets a read exploit.
		if rt.power != sched.Oblivious && (req.kind == sched.OpWrite || req.kind == sched.OpProbWrite) {
			op.InFlight = true
		}
		if rt.sem == register.Interposed {
			// The linearizable interposition blunts the adversary
			// (Attiya–Enea–Welch): the contents of in-flight operations —
			// pending write values and attempt probabilities — are hidden
			// inside the implementation; only completed state (View.Memory)
			// remains visible.
			op.Val = value.None
			op.ProbNum, op.ProbDen = 0, 0
		}
	}
	return op
}
