// Package live runs the same deciding objects on real hardware concurrency:
// registers are backed by sync/atomic, processes are free-running
// goroutines, and the "adversary" is the Go scheduler. Its one export,
// Backend, implements the backend-neutral exec.Backend contract as a
// first-class peer of the simulator (internal/sim), and every execution is
// a Run of one of its sessions: per-process operation accounting into the
// shared exec.Result, fault injection (crashes, stalls, delay jitter, lost
// coins — internal/fault), context cancellation, and an
// optional total-operation budget all behave as on sim — only the
// interleaving is uncontrolled, which is the point. Wall-clock numbers come
// from here; the simulated backend remains the ground truth for the paper's
// model-cost measures, which this backend also tracks exactly (the Env
// contract prices operations identically on both).
//
// This is the only backend in which processes are goroutines: the simulated
// backend runs processes as same-thread coroutines for speed and trace
// determinism. The split is intentional — here the Go scheduler *is* the
// adversary, so real concurrency is the point, and the Env contract (one
// pending shared-memory op per process, coins free) is identical in both
// backends.
//
// Determinism: per-process coin and probabilistic-write streams are derived
// from the seed with the same exec.ProcCoins/ProcProb derivation the
// simulator uses, so they are reproducible per (seed, pid) — and for
// adversary-free (single-process) executions the whole run is
// bit-equivalent to sim: same coins, same probabilistic-write outcomes,
// same decision, same op count. The cross-backend equivalence tests pin
// this. With n > 1 the interleaving, and hence outputs, may differ run to
// run; only safety properties (agreement, validity) are schedule-
// independent.
package live

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// memory is an atomic-register file mirroring a register.File layout,
// including initial values (protocols initialize announcement registers to
// 0 at construction time).
type memory struct {
	cells []paddedCell
}

// cacheLine is the assumed cache-line size; 64 bytes covers every platform
// this module targets (x86-64, arm64).
const cacheLine = 64

// paddedCell keeps each register on its own cache line so benchmark
// contention reflects algorithmic sharing, not false sharing. The pad is
// computed from unsafe.Sizeof at compile time, so a representation change
// of value.AtomicValue resizes it automatically instead of quietly
// re-introducing false sharing (pinned by TestPaddedCellFillsCacheLine).
type paddedCell struct {
	v value.AtomicValue
	_ [(cacheLine - unsafe.Sizeof(value.AtomicValue{})%cacheLine) % cacheLine]byte
}

// newMemory builds atomic memory with the same size and initial contents as
// file.
func newMemory(file *register.File) *memory {
	m := &memory{cells: make([]paddedCell, file.Len())}
	for i := range m.cells {
		m.cells[i].v.Store(file.Load(register.Reg(i)))
	}
	return m
}

// Load atomically reads register r.
func (m *memory) Load(r register.Reg) value.Value { return m.cells[r].v.Load() }

// Store atomically writes register r.
func (m *memory) Store(r register.Reg, v value.Value) { m.cells[r].v.Store(v) }

// procStop is the sentinel panic that unwinds a process goroutine when the
// runtime stops it mid-program: a planned crash or stall (fault plan),
// context cancellation, or the shared operation budget running out. The
// goroutine wrapper swallows it and records the fate; any other panic
// propagates out of run with its original value. A stalled goroutine blocks
// on the context first and unwinds only once cancellation fires — that is
// the injection point for livelock, and why stall faults require a Context.
type procStop struct {
	crashed   bool
	stalled   bool
	cancelled bool
	limited   bool
}

// env implements core.Env over atomic memory for one goroutine-process.
type env struct {
	mem   *memory
	pid   int
	n     int
	cheap bool
	// coins serves local coin flips and prob the probabilistic-write
	// coins — two streams, split exactly as the simulator splits them, so
	// single-process executions are bit-equivalent across backends.
	coins *xrand.Source
	prob  *xrand.Source
	ops   int
	// crashAt / stallAt are the own-operation counts at which this process
	// crashes / stalls (fault.Never if unplanned); stepCrashAt is the 1-based
	// global-operation threshold compiled from crash-on-round faults,
	// checked against totalOps when that counter exists.
	crashAt     int
	stallAt     int
	stepCrashAt int
	// inj serves per-op delay and lost-coin draws; nil-safe and free when
	// no fault plan is active.
	inj *fault.Injector
	// totalOps is the shared global operation counter, allocated only when
	// the plan contains crash-on-round faults.
	totalOps *atomic.Int64
	// meter, if non-nil, receives a live count of executed operations for
	// progress reporting; nil costs one branch per operation (same
	// zero-overhead contract as the sim backend).
	meter *obs.Meter
	// regular enables regular-register reads: each read samples its target
	// twice around a scheduling yield, and when the samples differ — a
	// write really did overlap the read — a coin from sem picks the old or
	// the new value. sem is this process's private semantics stream
	// (exec.ProcSemCoins), nil under atomic semantics.
	regular bool
	sem     *xrand.Source
	// ctxDone, if non-nil, is polled at every operation boundary.
	ctxDone <-chan struct{}
	// budget, if non-nil, is the shared remaining-operation counter
	// backing Config.MaxSteps.
	budget *atomic.Int64
	// collectBuf backs Collect results; reused per the copy-on-escape
	// contract on core.Env.Collect.
	collectBuf []value.Value
}

var _ core.Env = (*env)(nil)

// account charges one operation and applies the runtime's stop conditions.
// It runs after the operation took effect, mirroring sim: a crashed
// process's final operation lands in memory, but the process never observes
// the result and performs no further operations.
func (e *env) account() {
	e.ops++
	if e.meter != nil {
		e.meter.AddSteps(1)
	}
	var gop int64
	if e.totalOps != nil {
		// The Add result is the 1-based global index of the operation that
		// just landed — the exact quantity crash-on-round thresholds are
		// compiled against (on sim the step counter plays this role).
		gop = e.totalOps.Add(1)
	}
	if e.budget != nil && e.budget.Add(-1) < 0 {
		panic(procStop{limited: true})
	}
	if e.ops >= e.crashAt {
		panic(procStop{crashed: true})
	}
	if e.totalOps != nil && gop >= int64(e.stepCrashAt) {
		panic(procStop{crashed: true})
	}
	if e.ops >= e.stallAt {
		e.stallForever()
	}
	if d := e.inj.OpDelay(e.pid); d > 0 {
		time.Sleep(d)
	}
	if e.ctxDone != nil {
		select {
		case <-e.ctxDone:
			panic(procStop{cancelled: true})
		default:
		}
	}
}

// stallForever is the live injection point for stall faults: the goroutine
// holds its state and performs no further operations until the context is
// cancelled, then unwinds as stalled. This is the livelock the harness
// watchdog exists to catch.
func (e *env) stallForever() {
	if e.ctxDone != nil {
		<-e.ctxDone
	}
	panic(procStop{stalled: true})
}

// PID implements core.Env.
func (e *env) PID() int { return e.pid }

// N implements core.Env.
func (e *env) N() int { return e.n }

// readYield widens the overlap window of a regular-register read between
// its two samples. It is a variable so the regular-semantics tests can
// interpose a deterministic concurrent write where production code yields
// to the Go scheduler.
var readYield = runtime.Gosched

// Read implements core.Env. Under atomic semantics it is a single atomic
// load. Under regular semantics (Hadzilacos–Hu–Toueg) the read is realized
// as two samples around a scheduling yield: the first plays the rôle of the
// value at the read's invocation, the second the value at its response, and
// when a concurrent write makes them differ the process's semantics coin
// decides which one the read returns — old or new, exactly the freedom a
// regular register grants. Either way the read costs one operation.
func (e *env) Read(r register.Reg) value.Value {
	v := e.mem.Load(r)
	if e.regular {
		readYield()
		if v2 := e.mem.Load(r); v2 != v && !e.sem.Bool() {
			v = v2
		}
	}
	e.account()
	return v
}

// Write implements core.Env.
func (e *env) Write(r register.Reg, v value.Value) {
	e.mem.Store(r, v)
	e.account()
}

// ProbWrite implements core.Env: the coin is local, the store atomic. (The
// hardware scheduler cannot condition on the coin any more than the model's
// location-oblivious adversary can.)
func (e *env) ProbWrite(r register.Reg, v value.Value, num, den uint64) bool {
	ok := e.prob.Bernoulli(num, den)
	if e.inj.LoseCoin(e.pid) {
		// Lost in flight: the process's own coin stream is consumed exactly
		// as in a fault-free run, but the write is suppressed and reported
		// failed (same draw order as sim, so n=1 runs stay bit-equivalent
		// across backends under the same plan).
		ok = false
	}
	if ok {
		e.mem.Store(r, v)
	}
	e.account()
	return ok
}

// Collect implements core.Env: a read sweep costing one operation under the
// cheap model and one per register otherwise. As on sim, the non-cheap
// sweep is not atomic — each read is its own operation boundary, so crashes
// and cancellation can land mid-sweep. Copy-on-escape: the returned slice
// is reused by this env's next Collect.
func (e *env) Collect(arr register.Array) []value.Value {
	e.collectBuf = e.collectBuf[:0]
	if e.cheap {
		for i := 0; i < arr.Len; i++ {
			e.collectBuf = append(e.collectBuf, e.mem.Load(arr.At(i)))
		}
		e.account()
		return e.collectBuf
	}
	for i := 0; i < arr.Len; i++ {
		e.collectBuf = append(e.collectBuf, e.Read(arr.At(i)))
	}
	return e.collectBuf
}

// CheapCollect implements core.Env.
func (e *env) CheapCollect() bool { return e.cheap }

// CoinUint64 implements core.Env.
func (e *env) CoinUint64() uint64 { return e.coins.Uint64() }

// CoinBool implements core.Env.
func (e *env) CoinBool() bool { return e.coins.Bool() }

// CoinIntn implements core.Env.
func (e *env) CoinIntn(n int) int { return e.coins.Intn(n) }

// MarkInvoke implements core.Env (no tracing on the live backend).
func (e *env) MarkInvoke(string, value.Value) {}

// MarkReturn implements core.Env (no tracing on the live backend).
func (e *env) MarkReturn(string, value.Decision) {}

// backend implements exec.Backend over atomic memory and goroutines.
type backend struct{}

// Backend returns the live runtime as an exec.Backend.
func Backend() exec.Backend { return backend{} }

// Name implements exec.Backend.
func (backend) Name() string { return "live" }

// Capabilities implements exec.Backend: no adversary control (the hardware
// scheduler decides the interleaving) and no tracing (there is no global
// step sequence to order events by).
func (backend) Capabilities() exec.Capabilities {
	return exec.Capabilities{
		// Regular registers are realizable over real sync/atomic memory
		// (two-sample reads, see env.Read); interposed semantics is not —
		// its whole content is blunting an explicit adversary's view of
		// in-flight operations, and this backend has no adversary to blunt.
		Semantics: register.SetOf(register.Atomic, register.Regular),
	}
}

// session runs every trial as one run: the live backend mirrors cfg.File
// into fresh atomic memory per execution and keeps no cross-run state, so
// there is nothing to reuse.
type session struct {
	cfg      exec.Config
	programs []exec.Program
}

// NewSession implements exec.Backend. Configuration errors surface from the
// first Run.
func (backend) NewSession(cfg exec.Config, programs ...exec.Program) (exec.Session, error) {
	return &session{cfg: cfg, programs: programs}, nil
}

// Run implements exec.Session.
func (s *session) Run(ctx context.Context, seed uint64) (*exec.Result, error) {
	return run(ctx, s.cfg, seed, s.programs...)
}

// Close implements exec.Session.
func (*session) Close() error { return nil }

// run executes programs under cfg with the given seed and one free-running
// goroutine per process over atomic memory mirroring cfg.File, and blocks
// until every process halts, crashes, stalls, is cancelled through ctx, or
// exhausts the operation budget. If len(programs) is 1 the single program
// is used for every process. A program panic is re-raised on the caller's
// goroutine with its original value.
func run(ctx context.Context, cfg exec.Config, seed uint64, programs ...exec.Program) (*exec.Result, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("live: N=%d must be positive", cfg.N)
	}
	if cfg.File == nil {
		return nil, errors.New("live: nil register file")
	}
	if cfg.Scheduler != nil {
		return nil, fmt.Errorf("live: scheduler %q rejected: the live backend has no adversary control (the hardware scheduler decides the interleaving)", cfg.Scheduler.Name())
	}
	if cfg.Trace != nil {
		return nil, fmt.Errorf("live: tracing rejected: the live backend has no global step sequence to record")
	}
	switch cfg.Registers {
	case register.Atomic, register.Regular:
	case register.Interposed:
		return nil, fmt.Errorf("live: interposed registers rejected: the interposition blunts an explicit adversary's view of in-flight operations, and the live backend has no adversary to blunt")
	default:
		return nil, fmt.Errorf("live: unknown register semantics %v", cfg.Registers)
	}
	inj, err := fault.Compile(cfg.Faults, cfg.N, seed)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if inj.HasStall() && ctx == nil {
		return nil, errors.New("live: stall faults require a Context (a stalled process never halts; only cancellation ends the execution)")
	}
	cfg.File.SetSemantics(cfg.Registers)
	progs, err := exec.Programs(cfg.N, programs)
	if err != nil {
		return nil, err
	}

	mem := newMemory(cfg.File)
	res := exec.NewResult(cfg.N)

	var budget *atomic.Int64
	if cfg.MaxSteps > 0 {
		budget = new(atomic.Int64)
		budget.Store(int64(cfg.MaxSteps))
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}

	var totalOps *atomic.Int64
	if inj.HasCrashStep() {
		totalOps = new(atomic.Int64)
	}
	if inj.HasStall() {
		res.Stalled = make([]bool, cfg.N)
	}

	root := xrand.New(seed)
	regular := cfg.Registers == register.Regular
	envs := make([]*env, cfg.N)
	for pid := 0; pid < cfg.N; pid++ {
		envs[pid] = &env{
			mem: mem, pid: pid, n: cfg.N, cheap: cfg.CheapCollect,
			coins: exec.ProcCoins(root, pid), prob: exec.ProcProb(root, pid),
			crashAt: inj.CrashAt(pid), stallAt: inj.StallAt(pid),
			stepCrashAt: inj.CrashStep(pid), inj: inj, totalOps: totalOps,
			meter: cfg.Meter, ctxDone: ctxDone, budget: budget,
			regular: regular,
		}
		if regular {
			// Derived only when needed, so atomic executions draw exactly
			// the streams they always did (Split never advances root).
			envs[pid].sem = exec.ProcSemCoins(root, pid)
		}
	}

	var (
		wg        sync.WaitGroup
		limited   atomic.Bool
		cancelled atomic.Bool
		// firstPanic captures a program panic so run can re-panic it on
		// the caller's goroutine (matching sim's propagation contract)
		// instead of crashing the process from a worker.
		panicMu    sync.Mutex
		firstPanic any
	)
	for pid := 0; pid < cfg.N; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if stop, ok := r.(procStop); ok {
					switch {
					case stop.crashed:
						res.Crashed[pid] = true
					case stop.stalled:
						// The stalled goroutine only unwound because the
						// context fired, so the run as a whole reports
						// cancellation.
						res.Stalled[pid] = true
						if ctxDone != nil {
							cancelled.Store(true)
						}
					case stop.limited:
						limited.Store(true)
					case stop.cancelled:
						cancelled.Store(true)
					}
					return
				}
				panicMu.Lock()
				if firstPanic == nil {
					firstPanic = r
				}
				panicMu.Unlock()
			}()
			e := envs[pid]
			// Threshold 0 fires before the first operation: the process
			// crashes or stalls having done nothing at all.
			if e.crashAt <= 0 {
				panic(procStop{crashed: true})
			}
			if e.stallAt <= 0 {
				e.stallForever()
			}
			out := progs[pid](e)
			res.Outputs[pid] = out
			res.Halted[pid] = true
		}(pid)
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}

	for pid, e := range envs {
		res.Work[pid] = e.ops
		res.TotalWork += e.ops
	}
	res.Steps = res.TotalWork

	switch {
	case limited.Load():
		return res, fmt.Errorf("%w (limit %d, backend %q)", exec.ErrStepLimit, cfg.MaxSteps, "live")
	case cancelled.Load():
		return res, fmt.Errorf("%w after %d operations: %w", exec.ErrCancelled, res.TotalWork, context.Cause(ctx))
	}
	return res, nil
}
