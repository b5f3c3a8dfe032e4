// Package sim is the discrete-event runtime for the paper's asynchronous
// shared-memory model (§2).
//
// Each of the n processes runs its Program as a same-thread resumable
// coroutine (an iter.Pull iterator over its pending operations). A process's
// call into the Env (Read, Write, ProbWrite, Collect) publishes exactly one
// pending operation and suspends; the runtime asks the adversary Scheduler
// which pending operation executes next, applies it atomically to the
// register file, and resumes that coroutine in place — a direct context
// switch with no goroutine scheduler round-trip and no channel traffic.
// Asynchrony is therefore modeled by interleaving, exactly as in the paper,
// and the runtime counts total and per-process (individual) work as defined
// there: every shared-memory operation costs 1 (probabilistic writes cost 1
// whether or not they take effect), local coin flips cost 0.
//
// The step path is allocation-free in the steady state: scheduler views and
// collect snapshots are served from buffers owned by the engine and reused
// every step, and adversaries that see memory read the live register file
// plus the one register the previous step changed, so a step costs the same
// whatever the file's size (see the copy-on-escape contracts on sched.View
// and Env.Collect). Trace events are not even constructed when tracing is
// off.
//
// The same contract extends from steps to whole trials: Engine is a
// reusable runtime for one (programs, scheduler, config) cell whose
// Reset(seed, faults) rewinds registers, coroutines, views, and RNG streams
// in place, so a warmed-up engine runs entire executions without
// allocating. Run is the one-shot convenience built on it.
//
// Executions are deterministic functions of (programs, scheduler, seed):
// each process's local coins and probabilistic-write coins come from private
// split streams, and the scheduler gets its own stream. Because processes
// run as cooperatively scheduled coroutines, determinism extends to the
// trace: free events (coins, markers) interleave identically on every run.
package sim

import (
	"context"
	"errors"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// ErrStepLimit is returned by Run when the execution exceeds Config.MaxSteps
// before every live process halts. Randomized wait-free protocols terminate
// with probability 1 but not surely, so a limit is required to keep
// adversarial experiments finite; hitting it is reported, never hidden.
// It is the backend-neutral exec.ErrStepLimit, so errors.Is works whichever
// package the caller matched against.
var ErrStepLimit = exec.ErrStepLimit

// ErrCancelled is returned (wrapped, together with the context's cause) by
// Run when Config.Context is cancelled before every live process halts.
// It is the backend-neutral exec.ErrCancelled.
var ErrCancelled = exec.ErrCancelled

// DefaultMaxSteps bounds executions when Config.MaxSteps is zero.
const DefaultMaxSteps = 10_000_000

// Program is the code of one process. It receives its environment and
// returns the process's decision value. Programs must perform all shared
// memory access through the Env.
type Program func(e *Env) value.Value

// Config describes one execution.
type Config struct {
	// N is the number of processes.
	N int
	// File is the shared register file (pre-allocated by the protocol).
	File *register.File
	// Scheduler is the adversary. Views are built at exactly
	// Scheduler.MinPower().
	Scheduler sched.Scheduler
	// Seed determines every random choice in the execution. (NewEngine
	// ignores it: a reusable engine takes each trial's seed through Reset.)
	Seed uint64
	// Trace, if non-nil, records the execution.
	Trace *trace.Log
	// CheapCollect enables the cheap-collect cost model (§6.2, choice 4):
	// Env.Collect costs one operation. Otherwise Collect performs one read
	// per register.
	CheapCollect bool
	// Registers selects the register consistency model (zero value
	// register.Atomic — the paper's base model, bit-identical to the
	// pre-semantics engine). Under register.Regular a read whose target was
	// overwritten between the read's invocation (publication as a pending
	// op) and its execution may return the pre-write value, chosen by a
	// dedicated schedule-ordered coin stream; cheap collects remain atomic
	// snapshots (the cheap-collect primitive is an atomic snapshot by
	// definition, §6.2), while non-cheap collects inherit regularity from
	// their individual reads. Under register.Interposed reads stay atomic
	// but adversary views are blunted: pending operation values and
	// probabilities are hidden from strong adversaries (Attiya–Enea–Welch).
	Registers register.Semantics
	// Faults is the compiled fault injector (fault.Compile), consulted at
	// operation boundaries: a process crashes after its crash threshold of
	// own operations (its last operation takes effect, but it never
	// observes the result and is never scheduled again), global-step
	// crashes fire at the first own operation at or past the threshold,
	// stalls freeze a process without halting or crashing it, per-op
	// delays sleep the engine thread, and lost coins suppress probabilistic
	// writes after the process's own coin stream is consumed as usual.
	// Legacy pid -> crash-after-k maps compile through fault.FromCrashMap.
	// Stall faults require a non-nil Context: a stalled process never
	// halts, so only cancellation can end the execution. nil means no
	// faults and costs nothing on the step path. (NewEngine ignores it: a
	// reusable engine takes each trial's injector through Reset.)
	Faults *fault.Injector
	// MaxSteps bounds total work; 0 means DefaultMaxSteps.
	MaxSteps int
	// Context, if non-nil, cancels the execution between scheduled
	// operations: a hung adversary schedule stops at the next step instead
	// of running to MaxSteps. Cancellation is reported as an error wrapping
	// both ErrCancelled and the context's cause, so callers can test either.
	// (NewEngine ignores it: a reusable engine takes each trial's context
	// through Engine.Run.)
	Context context.Context
	// Meter, if non-nil, receives a live count of executed operations for
	// progress reporting. nil costs one predictable branch per step and zero
	// allocations (pinned by TestStepLoopZeroAllocsMeterOff); metering never
	// affects results.
	Meter *obs.Meter
}

// Result summarizes an execution. It is the backend-neutral exec.Result:
// the simulator fills every field, including Steps (== TotalWork here, one
// operation per scheduled step) and Trace when tracing was requested.
type Result = exec.Result

type request struct {
	kind sched.OpKind
	reg  register.Reg
	arr  register.Array
	val  value.Value
	num  uint64
	den  uint64
	// park marks the between-trials parking yield of a persistent process
	// coroutine; it is never a schedulable operation.
	park bool
}

type response struct {
	val  value.Value
	vals []value.Value
	ok   bool
	// abort tells the resumed process to unwind its current trial: its
	// pending Env call panics with errTrialAbort, recovered at the trial
	// boundary (Engine.Reset aborting a mid-trial coroutine).
	abort bool
}

// proc is the engine-side state of one process coroutine. The resume
// protocol replaces the old four-channel handoff: the engine writes resp,
// calls next() to transfer control into the coroutine, and the coroutine
// either yields its next request (suspending itself) or parks between
// trials. Control transfer is a same-thread coroutine switch (runtime coro
// under iter.Pull), so resp/pending need no synchronization.
type proc struct {
	// next resumes the coroutine; it returns the process's next pending
	// operation (or the parking sentinel), or ok=false once the coroutine
	// body has returned at teardown.
	next func() (request, bool)
	// stop unwinds a suspended coroutine (its pending Env call panics with
	// errKilled, which the coroutine wrapper swallows).
	stop func()
	// resp is the engine's answer to the coroutine's previous request; the
	// coroutine reads it immediately after its yield returns.
	resp    response
	pending request
	hasOp   bool
	// parked reports that the coroutine is idling at a trial boundary: a
	// fresh coroutine whose body has not started, or one waiting on its
	// parking yield after finishing (or aborting) a trial.
	parked  bool
	halted  bool
	crashed bool
	stalled bool
	output  value.Value
}

// errKilled is the sentinel panic used to unwind process coroutines at
// teardown (Engine.Close).
var errKilled = errors.New("sim: process killed")

// errTrialAbort is the sentinel panic used by Engine.Reset to unwind a
// coroutine out of an unfinished trial without killing it: the coroutine
// recovers it at the trial boundary and parks for the next trial.
var errTrialAbort = errors.New("sim: trial aborted by engine reset")

// Run executes programs[pid] for each pid under cfg and returns the result.
// If len(programs) == 1 the single program is used for every process.
// Run panics if a process program panics (with the original panic value).
//
// Run is the one-shot form of the reusable Engine — construct, run one
// trial with cfg.Seed/cfg.Faults/cfg.Context, tear down — and is
// bit-identical to it by construction. Sweeps that run many trials of one
// cell should hold an Engine (or an exec.Session) instead and amortize the
// construction.
func Run(cfg Config, programs ...Program) (*Result, error) {
	eng, err := NewEngine(cfg, programs...)
	if err != nil {
		return nil, err
	}
	// Close unwinds every coroutine even when a program panic propagates
	// out of eng.Run, preserving the original panic value.
	defer eng.Close()
	if err := eng.Reset(cfg.Seed, cfg.Faults); err != nil {
		return nil, err
	}
	return eng.Run(cfg.Context)
}
