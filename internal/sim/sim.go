// Package sim is the discrete-event runtime for the paper's asynchronous
// shared-memory model (§2).
//
// Each of the n processes runs its exec.Program as a same-thread resumable
// coroutine (an iter.Pull iterator over its pending operations). A process's
// call into the core.Env (Read, Write, ProbWrite, Collect) publishes exactly
// one pending operation and suspends; the runtime asks the adversary
// Scheduler which pending operation executes next, applies it atomically to
// the register file, and resumes that coroutine in place — a direct context
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
// and core.Env.Collect). Trace events are not even constructed when tracing
// is off.
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
	// boundary (engine.reset aborting a mid-trial coroutine).
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
// teardown (engine.Close).
var errKilled = errors.New("sim: process killed")

// errTrialAbort is the sentinel panic used by engine.reset to unwind a
// coroutine out of an unfinished trial without killing it: the coroutine
// recovers it at the trial boundary and parks for the next trial.
var errTrialAbort = errors.New("sim: trial aborted by engine reset")
