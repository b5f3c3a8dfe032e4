// Package sim is the discrete-event runtime for the paper's asynchronous
// shared-memory model (§2).
//
// Each of the n processes runs its exec.Program as a same-thread resumable
// coroutine (an iter.Pull iterator). A process's call into the core.Env
// (Read, Write, ProbWrite, Collect) writes exactly one pending operation,
// and then the process itself runs the step loop's next iteration on its
// own stack: it patches its entry in the adversary's view, runs the stop
// check and asks the adversary Scheduler which pending operation executes
// next. When the adversary picks the same process, the operation is
// applied atomically to the register file right there and the call returns
// with no coroutine switch at all; otherwise the process suspends, and the
// runtime applies the chosen operation and resumes that process in place —
// one round trip of direct same-thread context switches, with no goroutine
// scheduler and no channel traffic. Either way the loop runs the same stop
// check, pick, apply and patch, in the same order, so where a step runs
// never shows in a result or a trace.
// Asynchrony is therefore modeled by interleaving, exactly as in the paper,
// and the runtime counts total and per-process (individual) work as defined
// there: every shared-memory operation costs 1 (probabilistic writes cost 1
// whether or not they take effect), local coin flips cost 0.
//
// The step path is allocation-free in the steady state, and copies no
// struct: a process writes its request into its engine-side slot, the
// engine writes the view entry and the response in place, and scheduler
// views and collect snapshots are served from buffers owned by the engine
// and reused every step. Adversaries that see memory read the live register
// file plus the one register the previous step changed, so a step costs the
// same whatever the file's size (see the copy-on-escape contracts on
// sched.View and core.Env.Collect). Trace events are not even constructed
// when tracing is off.
//
// The same contract extends from steps to whole trials. The package's one
// entry point is Backend, an exec.Backend whose sessions are engines: a
// session is built once per (config, programs) cell — register image,
// coroutines, buffers and the compiled fault plan — and each Run(ctx, seed)
// rewinds registers, coroutines, views, and RNG streams in place and runs
// one trial, so a warmed-up session runs entire executions without
// allocating. A single execution is one Run of a fresh session.
//
// Executions are deterministic functions of (programs, scheduler, seed):
// each process's local coins and probabilistic-write coins come from private
// split streams, and the scheduler gets its own stream. Because processes
// run as cooperatively scheduled coroutines, determinism extends to the
// trace: free events (coins, markers) interleave identically on every run.
package sim

import (
	"errors"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// DefaultMaxSteps bounds executions when exec.Config.MaxSteps is zero.
const DefaultMaxSteps = 10_000_000

type request struct {
	kind sched.OpKind
	reg  register.Reg
	arr  register.Array
	val  value.Value
	num  uint64
	den  uint64
}

type response struct {
	val  value.Value
	vals []value.Value
	ok   bool
	// abort tells the resumed process to unwind its current trial: its
	// pending Env call panics with errTrialAbort, recovered at the trial
	// boundary (engine.reset aborting a mid-trial coroutine).
	abort bool
}

// proc is the engine-side state of one process coroutine. The resume
// protocol replaces the old four-channel handoff: the engine writes resp,
// calls next() to transfer control into the coroutine, and the coroutine
// writes its next request to pending and takes steps on its own stack
// until it yields a handoff (a pick of another process, or a reason for
// the loop to pick), or parks between trials. Control transfer is a
// same-thread coroutine switch (runtime coro under iter.Pull), so
// resp/pending need no synchronization.
type proc struct {
	// next resumes the coroutine; it returns the process's handoff (or
	// parked), or ok=false once the coroutine body has returned at
	// teardown.
	next func() (int, bool)
	// stop unwinds a suspended coroutine (its pending Env call panics with
	// errKilled, which the coroutine wrapper swallows).
	stop func()
	// resp is the engine's answer to the process's request; the process
	// reads it as soon as its step is applied. pending is the request the
	// process's program wrote last.
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
// teardown (engine.Close).
var errKilled = errors.New("sim: process killed")

// errTrialAbort is the sentinel panic used by engine.reset to unwind a
// coroutine out of an unfinished trial without killing it: the coroutine
// recovers it at the trial boundary and parks for the next trial.
var errTrialAbort = errors.New("sim: trial aborted by engine reset")
