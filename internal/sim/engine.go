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

// engine is the simulator's exec.Session: a reusable runtime for one
// (config, programs) cell, and the per-trial extension of the step loop's
// zero-allocation contract. newEngine pays construction once — register
// image, scheduler views, per-process RNG streams, the compiled fault plan,
// and the process coroutines themselves — and every Run(ctx, seed) first
// rewinds all of it in place (reset), so a warmed-up engine runs whole
// trials without allocating. cfg.Seed and cfg.Context are ignored: they
// arrive with each Run. cfg.Scheduler is the engine's adversary until
// SetScheduler installs another for later trials.
//
// Process coroutines persist across trials: after its program returns, a
// coroutine parks on a parking yield instead of exiting, and the next
// trial resumes it around the loop. Coroutines left suspended mid-trial
// (step limit, cancellation, crash, stall) are unwound by the next reset
// through an abort response that panics out of the pending Env call and is
// recovered at the trial boundary.
//
// If a trial panics (a program bug, a scheduler contract violation), the
// engine is poisoned: the panic propagates to the caller, and every later
// Run reports exec.ErrSessionPoisoned. A poisoned engine must be Closed and
// replaced — pools discard it rather than reuse it.
//
// An engine is not safe for concurrent use.
type engine struct {
	cfg      exec.Config
	power    sched.Power
	maxSteps int
	procs    []proc
	// seesMemory is set for the powers whose views carry Memory and
	// Changed (LocationOblivious, Adaptive).
	seesMemory bool
	// live is set while the loop runs: a process that issues a request
	// then takes the loop's next iteration on its own stack (turn).
	live bool
	// err is the stop check's verdict once it ends the trial; escaped is a
	// panic value a step on a process's stack hands to the loop.
	err     error
	escaped any

	// image is the register file's post-construction contents; reset
	// restores it so trial k+1 sees exactly the memory trial k started
	// from, Inits included.
	image []value.Value

	// Per-trial RNG streams, reseeded in place by reset with the shared
	// exec derivation (same streams a fresh engine would build).
	root     xrand.Source
	schedSrc xrand.Source
	coinSrc  []xrand.Source
	probSrc  []xrand.Source

	// Register-semantics state, allocated only under register.Regular: semSrc
	// is the shared schedule-ordered stream that resolves overlapping reads
	// (derived by reset only when needed, so atomic trials draw exactly the
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

	// inj is cfg.Faults compiled once; reset rewinds its streams to each
	// trial's seed. nil (and faulty false) when the plan is empty.
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
	// changes state per step, so runnable (ascending pids), view.Pending and
	// the view's index of pending operations by kind (sched.View.SetPending)
	// are patched in O(1) amortized instead of rebuilt in O(n). The buffers
	// are engine-owned and reused every step; schedulers may read them only
	// for the duration of one Next call (see the contract on sched.View).
	view     sched.View
	runnable []int
	// collectBuf backs cheap-collect responses, reused every step.
	collectBuf []value.Value

	poisoned bool
	closed   bool
}

// newEngine validates cfg, resolves programs (1 or N, exec.Programs),
// compiles the fault plan, snapshots the register file's initial image, and
// spawns the persistent process coroutines.
func newEngine(cfg exec.Config, programs ...exec.Program) (*engine, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: N=%d must be positive", cfg.N)
	}
	if cfg.File == nil {
		return nil, errors.New("sim: nil register file")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler (the sim backend requires an explicit adversary)")
	}
	progs, err := exec.Programs(cfg.N, programs)
	if err != nil {
		return nil, err
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
	// Thresholds and probabilities are seed-independent, and reset rewinds
	// the fault streams to each trial's seed, so one compile serves every
	// trial. (Stall plans are legal without a config context: Run demands
	// a per-trial context for them instead.)
	inj, err := fault.Compile(cfg.Faults, cfg.N, 0)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Stamp the model on the file so trace/error strings self-describe which
	// semantics produced them (a no-op for atomic: names stay byte-identical).
	cfg.File.SetSemantics(cfg.Registers)
	eng := &engine{
		cfg:         cfg,
		maxSteps:    maxSteps,
		procs:       make([]proc, cfg.N),
		image:       cfg.File.Contents(),
		coinSrc:     make([]xrand.Source, cfg.N),
		probSrc:     make([]xrand.Source, cfg.N),
		crashAt:     make([]int, cfg.N),
		stallAt:     make([]int, cfg.N),
		stepCrashAt: make([]int, cfg.N),
		inj:         inj,
		faulty:      inj != nil,
		needCtx:     inj.HasStall(),
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
		eng.spawn(pid, progs[pid])
	}
	return eng, nil
}

// spawn creates pid's persistent coroutine running prog. The body loops one
// program run per trial, parking on a sentinel yield between trials; a
// fresh coroutine counts as parked (its body has not started). A panic
// other than the engine's own sentinels propagates to whichever engine call
// resumed the coroutine — and from there out of Run with its original
// value.
func (eng *engine) spawn(pid int, prog exec.Program) {
	p := &eng.procs[pid]
	e := &env{
		pid:   pid,
		n:     eng.cfg.N,
		cheap: eng.cfg.CheapCollect,
		coins: &eng.coinSrc[pid],
		log:   eng.cfg.Trace,
		rt:    eng,
		p:     p,
	}
	p.parked = true
	p.next, p.stop = iter.Pull(func(yield func(int) bool) {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, errKilled) {
					return
				}
				panic(r)
			}
		}()
		e.yield = yield
		for {
			if out, completed := runProgram(e, prog); completed {
				p.halted = true
				p.output = out
			}
			// Park until the engine starts the next trial; a false yield
			// means Close is tearing the coroutine down while parked.
			if !yield(parked) {
				return
			}
		}
	})
}

// runProgram runs one trial of prog, converting the engine's reset-abort
// into a clean (uncompleted) return. Teardown (errKilled) and genuine
// program panics keep unwinding as panics.
func runProgram(e *env, prog exec.Program) (out value.Value, completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errTrialAbort) {
				completed = false
				return
			}
			panic(r)
		}
	}()
	return prog(e), true
}

// reset rewinds the engine to run one trial with the given seed, reusing
// every buffer in place: it aborts coroutines left mid-trial, restores the
// register image, rewinds the injector's and the engine's RNG streams,
// re-seeds the scheduler (which clears the scheduler's own state — see the
// sched.Scheduler contract), and zeroes the result. The injector is
// reseeded to seed, so its fault streams match fault.Compile(plan, n, seed)
// although it was compiled at seed 0.
func (eng *engine) reset(seed uint64) error {
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
		if h, ok := p.next(); !ok || h != parked {
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
	// Rewind the fault plane. Thresholds are seed-independent; only the
	// delay/lost-coin streams depend on the seed.
	eng.inj.Reseed(seed)
	for pid := 0; pid < eng.cfg.N; pid++ {
		eng.crashAt[pid] = eng.inj.CrashAt(pid)
		if eng.faulty {
			eng.stallAt[pid] = eng.inj.StallAt(pid)
			eng.stepCrashAt[pid] = eng.inj.CrashStep(pid)
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
	eng.seesMemory = eng.power == sched.LocationOblivious || eng.power == sched.Adaptive
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
	for pid := range eng.view.Pending {
		*eng.view.SetPending(pid, false, 0) = sched.Op{}
	}
	eng.view.Step = 0
	eng.view.Memory = nil
	eng.view.Changed = sched.Change{}
	eng.runnable = eng.runnable[:0]
	return nil
}

// SetScheduler installs s as the adversary of later Runs, which seed it and
// build its views at its MinPower. A caller that holds a fresh scheduler per
// execution (Solve) reuses one engine this way; the result is the one an
// engine constructed with s would return. Such a caller installs nil after
// each trial, so the idle engine keeps no reference to its scheduler; Run
// needs a non-nil one.
func (eng *engine) SetScheduler(s sched.Scheduler) { eng.cfg.Scheduler = s }

// Run implements exec.Session: it rewinds the engine to seed (reset), then
// runs one trial and returns the engine-owned result, whose slices and trace
// are invalidated by the next Run; callers that retain anything across
// trials must deep-copy first. ctx, if non-nil, cancels the execution
// between scheduled operations; plans with stall faults require one.
func (eng *engine) Run(ctx context.Context, seed uint64) (*exec.Result, error) {
	if eng.closed {
		return nil, errors.New("sim: Run on closed session")
	}
	if eng.poisoned {
		return nil, exec.ErrSessionPoisoned
	}
	if err := eng.reset(seed); err != nil {
		return nil, err
	}
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
			eng.restrictOp(pid)
		}
	}
	eng.live = true
	err := eng.loop()
	eng.live = false
	eng.result.Steps = eng.steps
	eng.ctx, eng.ctxDone = nil, nil // an idle engine keeps no caller's context
	eng.poisoned = false
	return eng.result, err
}

// Close implements exec.Session: it unwinds every coroutine and retires the
// engine. Suspended or parked processes see their pending Env call or
// parking yield fail and exit through the errKilled sentinel; an Env call
// in a program defer they run on the way out takes no step. Later calls
// are no-ops.
func (eng *engine) Close() error {
	if eng.closed {
		return nil
	}
	eng.closed = true
	eng.live = false
	for pid := range eng.procs {
		p := &eng.procs[pid]
		if p.stop != nil {
			p.stop()
		}
	}
	return nil
}

// Handoffs: what a process coroutine passes back to the loop when it
// suspends, and what step returns. A pid (>= 0) is the adversary's pick,
// which the loop applies next.
const (
	// again: the loop runs its stop check and asks the adversary itself
	// (a process issued its first request before the loop started, or a
	// step crashed, stalled or halted the process that took it).
	again = -1 - iota
	// stopped: the stop check ended the trial; rt.err holds why.
	stopped
	// parked: the program returned or unwound, and its coroutine parks
	// until the next trial.
	parked
	// escaped: a step taken on the process's stack panicked; rt.escaped
	// holds the value, which the loop raises again on its own stack.
	escaped
)

// loop drives the trial Run started to completion or to the step limit.
// Each iteration is the stop check and pick (next), then apply, then the
// patch of the mover's view entry. The loop runs an iteration only where no
// process can: at the start, and after a step ends its process's run.
// Otherwise the process that just issued a request runs the next one on its
// own stack (turn), and hands the loop only a pick of another process.
func (rt *engine) loop() error {
	for {
		pid := rt.next()
		for pid >= 0 {
			pid = rt.step(pid)
		}
		if pid == stopped {
			err := rt.err
			rt.err = nil
			return err
		}
	}
}

// next is the loop's stop check and pick: it returns the pid whose pending
// operation the adversary runs next, or stopped, with the error that ends
// the trial in rt.err (nil once every process halted or crashed).
func (rt *engine) next() int {
	if len(rt.runnable) == 0 {
		if rt.stalledN == 0 {
			rt.err = nil // every process halted or crashed
			return stopped
		}
		// Only stalled processes remain: the execution can never finish on
		// its own (the livelock a deadline watchdog exists to catch). Block
		// until cancellation; Run validated that a context exists whenever
		// stall faults do.
		if rt.ctxDone == nil {
			rt.err = fmt.Errorf("sim: %d process(es) stalled with no context to interrupt the execution", rt.stalledN)
			return stopped
		}
		<-rt.ctxDone
		rt.err = fmt.Errorf("%w after %d steps (%d process(es) stalled): %w", exec.ErrCancelled, rt.steps, rt.stalledN, context.Cause(rt.ctx))
		return stopped
	}
	if rt.steps >= rt.maxSteps {
		rt.err = fmt.Errorf("%w (limit %d, scheduler %q)", exec.ErrStepLimit, rt.maxSteps, rt.cfg.Scheduler.Name())
		return stopped
	}
	if rt.ctxDone != nil {
		select {
		case <-rt.ctxDone:
			rt.err = fmt.Errorf("%w after %d steps: %w", exec.ErrCancelled, rt.steps, context.Cause(rt.ctx))
			return stopped
		default:
		}
	}
	rt.view.Step = rt.steps
	rt.view.Runnable = rt.runnable
	if rt.seesMemory {
		// Fetched every step: a protocol that allocates registers mid-run
		// (core.Unbounded) moves the cells.
		rt.view.Memory = rt.cfg.File.Cells()
	}
	pid := rt.cfg.Scheduler.Next(&rt.view)
	if pid < 0 || pid >= rt.cfg.N || !rt.procs[pid].hasOp || rt.procs[pid].crashed {
		panic(fmt.Sprintf("sim: scheduler %q chose non-runnable pid %d", rt.cfg.Scheduler.Name(), pid))
	}
	return pid
}

// step is the loop's half of a step: it applies pid's operation and, unless
// that ends pid's run, resumes pid, which issues its next request and takes
// the next iteration on its own stack (turn). It returns what pid hands
// back: the next pick, again, or stopped.
func (rt *engine) step(pid int) int {
	if !rt.apply(pid) {
		return again
	}
	h := rt.resume(pid)
	if h == parked {
		rt.retire(pid)
		return again
	}
	return h
}

// turn is the process's half of a step, run on its own stack when its
// program issues the request now in its pending slot. It records the
// request (invoke) and, while the loop runs, takes the loop's next
// iteration: it patches its view entry, runs the stop check and asks the
// adversary. A pick of itself is applied right there, and turn returns pid
// for the program to read its response with no coroutine switch; any other
// outcome is the handoff the process yields to the loop. A panic in any of
// it is caught before it can unwind the program and its defers, and handed
// to the loop as escaped.
func (rt *engine) turn(pid int) (h int) {
	defer func() {
		if r := recover(); r != nil {
			rt.live = false
			rt.escaped = r
			h = escaped
		}
	}()
	rt.invoke(pid)
	if !rt.live {
		return again
	}
	rt.restrictOp(pid)
	if h = rt.next(); h != pid {
		return h
	}
	if !rt.apply(pid) {
		return again
	}
	return pid
}

// retire clears pid's view entry and drops it from the runnable list once
// it halted, crashed or stalled (so the O(n) shift is off the per-step
// path).
func (rt *engine) retire(pid int) {
	*rt.view.SetPending(pid, false, 0) = sched.Op{}
	for i, p := range rt.runnable {
		if p == pid {
			rt.runnable = append(rt.runnable[:i], rt.runnable[i+1:]...)
			return
		}
	}
}

// apply runs pid's pending operation on the register file, records and
// counts it, and writes the response into pid's response slot. For an
// adversary that sees memory it also sets the view's Changed. Then pid's
// crash and stall thresholds are checked: apply reports whether pid goes on
// to read its response, false once it crashed or stalled at this step (and
// was retired).
func (rt *engine) apply(pid int) bool {
	p := &rt.procs[pid]
	req := &p.pending
	p.hasOp = false
	file := rt.cfg.File
	if rt.seesMemory {
		rt.view.Changed = sched.Change{}
	}

	switch req.kind {
	case sched.OpRead:
		p.resp.val = file.Load(req.reg)
		if rt.sem == register.Regular && p.resp.val != rt.invVal[pid] {
			// The register changed between this read's invocation and its
			// execution: under regular semantics the read overlapped the
			// write(s) and may legally return the old value. One coin from
			// the shared schedule-ordered stream decides, so the outcome is
			// a pure function of (schedule, seed).
			if rt.semSrc.Bool() {
				p.resp.val = rt.invVal[pid]
			}
		}
	case sched.OpWrite:
		rt.store(req.reg, req.val)
	case sched.OpProbWrite:
		p.resp.ok = rt.probSrc[pid].Bernoulli(req.num, req.den)
		if rt.faulty && rt.inj.LoseCoin(pid) {
			// The coin is lost in flight: the process's own coin stream was
			// consumed exactly as in a fault-free run (so no-loss draws stay
			// bit-identical), but the write is suppressed and reported
			// failed. Safe degradation — it can only slow termination.
			p.resp.ok = false
		}
		if p.resp.ok {
			rt.store(req.reg, req.val)
		}
	case sched.OpCollect:
		rt.collectBuf = file.SnapshotAppend(rt.collectBuf[:0], req.arr)
		p.resp.vals = rt.collectBuf
	default:
		panic(fmt.Sprintf("sim: unknown op kind %v", req.kind))
	}
	if rt.cfg.Trace != nil {
		ev := trace.Event{Step: rt.steps, PID: pid, Reg: int(req.reg), Val: req.val}
		switch req.kind {
		case sched.OpRead:
			ev.Kind = trace.Read
			ev.Val = p.resp.val
		case sched.OpWrite:
			ev.Kind = trace.Write
		case sched.OpProbWrite:
			ev.Kind = trace.ProbWrite
			ev.Succeeded = p.resp.ok
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
	// scheduled again; its coroutine stays suspended until the next reset
	// (or Close) unwinds it. rt.steps is now the 1-based global index of
	// this operation, which is what the crash-on-round thresholds are
	// compiled against.
	if rt.result.Work[pid] >= rt.crashAt[pid] || (rt.faulty && rt.steps >= rt.stepCrashAt[pid]) {
		rt.crash(pid)
		rt.retire(pid)
		return false
	}
	if rt.faulty && rt.result.Work[pid] >= rt.stallAt[pid] {
		rt.stall(pid)
		rt.retire(pid)
		return false
	}
	return true
}

// store lands a write of v on r. Only a write can change a register, and
// only to a value it does not already hold; for an adversary that sees
// memory, store records that change as the view's Changed.
func (rt *engine) store(r register.Reg, v value.Value) {
	if rt.seesMemory {
		if old := rt.cfg.File.Load(r); old != v {
			rt.view.Changed = sched.Change{Valid: true, Reg: r, Old: old}
		}
	}
	rt.cfg.File.Store(r, v)
}

// crash marks pid crashed. Called either after its last operation landed or
// before its first (threshold 0).
func (rt *engine) crash(pid int) {
	rt.procs[pid].crashed = true
	rt.result.Crashed[pid] = true
	if rt.cfg.Trace != nil {
		rt.cfg.Trace.Append(trace.Event{Step: -1, PID: pid, Kind: trace.Crash})
	}
}

// stall freezes pid: unlike a crash it is not reported as failed — the
// process holds its state forever and simply never takes another step, the
// classic livelock a deadline watchdog has to catch. Its coroutine stays
// suspended until the next reset aborts it.
func (rt *engine) stall(pid int) {
	rt.procs[pid].stalled = true
	rt.result.Stalled[pid] = true
	rt.stalledN++
}

// resume transfers control into pid's coroutine and returns its handoff.
// The coroutine runs its program to the next Env call, which records the
// request and, while the loop runs, takes steps on the process's stack
// until a pick of another process (the handoff), or parks once the program
// has returned (recorded here as the process's halt). A program panic
// propagates out of p.next (and out of Run) with its original value, and so
// does a panic a step on the process's stack handed back as escaped.
func (rt *engine) resume(pid int) int {
	p := &rt.procs[pid]
	h, ok := p.next()
	if !ok {
		// The body can only return through Close's teardown, never while a
		// trial is driving it.
		panic(fmt.Sprintf("sim: process %d coroutine exited mid-trial", pid))
	}
	switch h {
	case parked:
		// p.halted and p.output were set by the coroutine before parking.
		p.parked = true
		if p.halted {
			rt.result.Halted[pid] = true
			rt.result.Outputs[pid] = p.output
			if rt.cfg.Trace != nil {
				rt.cfg.Trace.Append(trace.Event{Step: -1, PID: pid, Kind: trace.Halt, Val: p.output})
			}
		}
	case escaped:
		r := rt.escaped
		rt.escaped = nil
		panic(r)
	}
	return h
}

// invoke records the request pid's program just wrote to its pending slot.
func (rt *engine) invoke(pid int) {
	p := &rt.procs[pid]
	p.hasOp = true
	p.parked = false
	if rt.sem == register.Regular && p.pending.kind == sched.OpRead {
		// Snapshot the target at invocation time: the read's execution
		// compares against this to detect an overlapping write.
		rt.invVal[pid] = rt.cfg.File.Load(p.pending.reg)
	}
}

// restrictOp writes pid's view entry: its pending request projected down to
// what rt.power permits the adversary to observe (§2.1). The entry is
// re-indexed from its old kind and written in place.
func (rt *engine) restrictOp(pid int) {
	req := &rt.procs[pid].pending
	write := req.kind == sched.OpWrite || req.kind == sched.OpProbWrite
	kind := req.kind
	if rt.power == sched.Oblivious {
		kind = 0 // liveness only
	}
	op := rt.view.SetPending(pid, true, kind)
	op.Reg, op.Val = -1, value.None
	op.ProbNum, op.ProbDen = 0, 0
	switch rt.power {
	case sched.Oblivious:
	case sched.ValueOblivious:
		op.Reg = req.reg
		if req.kind == sched.OpCollect {
			op.Reg = req.arr.Base
		}
	case sched.LocationOblivious:
		if write {
			op.Val = req.val
		}
		op.ProbNum, op.ProbDen = req.num, req.den
	case sched.Adaptive:
		op.Reg = req.reg
		if req.kind == sched.OpCollect {
			op.Reg = req.arr.Base
		}
		if write {
			op.Val = req.val
		}
		op.ProbNum, op.ProbDen = req.num, req.den
	default:
		panic(fmt.Sprintf("sim: unknown power %v", rt.power))
	}
	// Non-atomic models surface the invocation/execution window to any
	// adversary that may see operation kinds: a pending write is exactly
	// the overlap a regular register lets a read exploit.
	op.InFlight = rt.sem != register.Atomic && rt.power != sched.Oblivious && write
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
