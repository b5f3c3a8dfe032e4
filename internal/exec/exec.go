// Package exec defines the backend-neutral execution contract: what it
// means to run n process programs against a shared register file, and what
// an execution reports back.
//
// The paper's whole point is modularity — deciding objects are written once
// against the abstract shared-memory Env (internal/core) and make sense in
// any execution model that honors it. This package is the runtime-side
// mirror of that contract: a Backend builds a Session for one execution
// cell (process count, register file, crash plan, cost model, optional
// adversary and tracing), and each Session.Run(ctx, seed) returns a shared
// Result (per-process outputs and fates, the paper's total/individual work
// measures, step count, optional trace). Sessions are the only way to
// execute, so a single run and a pooled sweep trial run the same code.
//
// Two backends implement the contract today:
//
//   - internal/sim — the deterministic discrete-event simulator. The
//     adversary is an explicit sched.Scheduler, executions are pure
//     functions of (programs, scheduler, seed), and full traces can be
//     recorded. It is the ground truth for the paper's cost measures.
//   - internal/live — sync/atomic registers and free-running goroutines.
//     The "adversary" is the hardware scheduler, so runs measure wall-clock
//     behavior; operation counts are still exact, only the interleaving is
//     uncontrolled.
//
// Capabilities make the differences explicit instead of implicit: a caller
// that asks a backend for a feature it lacks (an adversary schedule on
// live, a trace on live) gets a clean error, not silent misbehavior.
// Future models — weaker registers, message-passing shims, remote
// execution — slot in as new Backend implementations rather than forks of
// the harness.
package exec

import (
	"context"
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// ErrStepLimit is returned by Session.Run when the execution exceeds
// Config.MaxSteps before every live process halts. Randomized wait-free
// protocols terminate with probability 1 but not surely, so a limit keeps
// adversarial experiments finite; hitting it is reported, never hidden.
var ErrStepLimit = errors.New("exec: step limit exceeded")

// ErrCancelled is returned (wrapped, together with the context's cause) by
// Session.Run when its context is cancelled before every process halts.
var ErrCancelled = errors.New("exec: execution cancelled")

// ErrSessionPoisoned is returned by Session.Run when a previous trial on the
// same session panicked or aborted in a way that may have left the engine's
// reusable state (register image, coroutines, buffers) inconsistent. A
// poisoned session must be Closed and replaced; pools discard it rather than
// reuse it.
var ErrSessionPoisoned = errors.New("exec: session poisoned by a previous trial")

// Program is the code of one process, written against the backend-neutral
// Env. It receives its environment and returns the process's final value.
// Programs must perform all shared-memory access through the Env.
type Program func(e core.Env) value.Value

// Config describes one execution, independent of the backend running it.
type Config struct {
	// N is the number of processes.
	N int
	// File is the shared register file the programs were built against.
	// Backends mirror its layout and initial contents into their own
	// memory; the file itself is not mutated by non-sim backends.
	File *register.File
	// Scheduler is the explicit adversary. It is honored only by backends
	// whose Capabilities report Adversary (and required by them); backends
	// without adversary control reject a non-nil Scheduler.
	Scheduler sched.Scheduler
	// Seed determines every random choice the backend controls. On a
	// deterministic backend that is the whole execution; on live it covers
	// the per-process coin streams but not the interleaving. NewSession
	// ignores it: each Session.Run takes its own seed.
	Seed uint64
	// Trace, if non-nil, records the execution. Only backends whose
	// Capabilities report Tracing accept it.
	Trace *trace.Log
	// CheapCollect enables the cheap-collect cost model (§6.2, choice 4):
	// Env.Collect costs one operation instead of one per register.
	CheapCollect bool
	// Registers selects the register consistency model (the zero value is
	// register.Atomic, the paper's base model). Backends honor only the
	// models their Capabilities.Semantics set contains and reject the rest
	// up front. Under register.Regular a read that overlaps a write may
	// return the old value, resolved deterministically from the schedule
	// plus a dedicated RNG stream; under register.Interposed reads stay
	// atomic but the adversary's view of in-flight operations is blunted
	// (Attiya–Enea–Welch).
	Registers register.Semantics
	// Faults is the typed fault plan for this execution: crashes (after k
	// own operations or on a global round), stalls, per-operation delay
	// jitter, and lost probabilistic-write coins. Backends compile it with
	// fault.Compile and honor the injector at their operation boundaries;
	// crash semantics match the paper's model (the last operation takes
	// effect, the process never observes the result). A nil or empty plan
	// is bit-identical to a fault-free execution. Plans containing stall
	// faults require a non-nil Context, since a stalled process never halts
	// and only cancellation can end the execution.
	Faults *fault.Plan
	// MaxSteps bounds total work. On sim, 0 means the simulator's default
	// bound; on live, 0 means unbounded (the hardware scheduler is fair in
	// practice, and Context is the idiomatic way to bound wall-clock runs).
	MaxSteps int
	// Context, if non-nil, cancels the execution at the next operation
	// boundary. Cancellation is reported as an error wrapping both
	// ErrCancelled and the context's cause. NewSession ignores it: each
	// Session.Run takes its own context.
	Context context.Context
	// Meter, if non-nil, receives a live count of executed operations while
	// the run is in flight, for progress reporting. Backends must honor the
	// zero-overhead-when-off contract: a nil Meter costs one predictable
	// branch per step and zero allocations (pinned by the sim allocation
	// tests). Metering never affects results.
	Meter *obs.Meter
}

// Validate checks the backend-independent requirements of a Config.
func (cfg *Config) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("exec: N=%d must be positive", cfg.N)
	}
	if cfg.File == nil {
		return errors.New("exec: nil register file")
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.N); err != nil {
			return fmt.Errorf("exec: %w", err)
		}
		if cfg.Faults.HasStall() && cfg.Context == nil {
			return errors.New("exec: stall faults require a Context (a stalled process never halts; only cancellation ends the execution)")
		}
	}
	return nil
}

// Capabilities declares what a backend can do, so callers can reject
// unsupported options up front with a precise error.
type Capabilities struct {
	// Adversary reports whether the backend honors Config.Scheduler. When
	// false the interleaving is outside the caller's control and a non-nil
	// Scheduler is a configuration error.
	Adversary bool
	// Tracing reports whether the backend can record Config.Trace.
	Tracing bool
	// Semantics is the set of register consistency models the backend can
	// execute (always at least register.Atomic). A Config.Registers outside
	// the set is a configuration error the caller reports before running.
	Semantics register.SemanticsSet
}

// Session is one execution context, and the only way to execute: a session
// is created once per (config, programs) cell and then Run once per trial
// with that trial's seed. A single execution is a session Run once and
// closed; a sweep replays one session per worker. On sim the session is a
// resettable engine (0 allocs/trial after warmup); on live it rebuilds its
// atomic memory and goroutines per Run.
//
// Contract:
//
//   - Run(ctx, seed) executes the cell's programs under its config with
//     that seed and context. The result is a pure function of (cell, seed)
//     on sim: which session runs a trial, and how many trials it ran
//     before, cannot affect it.
//   - The returned Result and everything it references (slices, trace) are
//     owned by the session and are invalidated by the next Run, but not by
//     Close; callers that retain anything across trials must deep-copy
//     first.
//   - ctx is per-Run (the robust trial engine arms a fresh watchdog context
//     per attempt); configs whose fault plans contain stalls must pass a
//     non-nil ctx to every Run.
//   - A session is not safe for concurrent use; pools hand each worker its
//     own.
//   - After a Run panics, the session is poisoned: subsequent Runs return
//     ErrSessionPoisoned and the only valid call is Close.
type Session interface {
	// Run executes one trial with the given seed.
	Run(ctx context.Context, seed uint64) (*Result, error)
	// Close releases the session's resources (coroutines, buffers). A
	// session must be closed exactly once; Run after Close is invalid.
	Close() error
}

// BatchSession is a Session that runs a list of seeds in one call. No
// backend implements it and the harness never calls it: sweeps replay one
// Session.Run per trial. It is kept, together with RunSeeds, only because
// the benchmark module in bench/ forwards it through its timing decorator
// and compiles against both.
//
// Contract, on top of Session's:
//
//   - RunBatch runs one trial per seed, in order, exactly as consecutive
//     Run(ctx, seeds[k]) calls would — bit-identical results on
//     deterministic backends.
//   - begin, if non-nil, is invoked before trial k starts; it is the
//     caller's hook for staging per-trial state. A begin error is trial k's
//     error: it arrives through emit and the batch moves on.
//   - emit receives each trial's session-owned result, invalidated when the
//     next trial starts (deep-copy to retain); returning false stops the
//     batch early with no error.
//   - RunBatch returns an error only when the session itself can no longer
//     run trials (closed, poisoned); per-trial errors arrive through emit.
type BatchSession interface {
	Session
	RunBatch(ctx context.Context, seeds []uint64, begin func(k int) error, emit func(k int, res *Result, err error) bool) error
}

// RunSeeds drives any Session through the BatchSession begin/emit protocol
// by looping Run; it is the reference semantics of RunBatch. Like
// BatchSession, it is kept only for the benchmark module in bench/.
func RunSeeds(s Session, ctx context.Context, seeds []uint64, begin func(k int) error, emit func(k int, res *Result, err error) bool) error {
	for k, seed := range seeds {
		if begin != nil {
			if err := begin(k); err != nil {
				if !emit(k, nil, err) {
					return nil
				}
				continue
			}
		}
		res, err := s.Run(ctx, seed)
		if !emit(k, res, err) {
			return nil
		}
	}
	return nil
}

// Backend runs process programs against shared registers under one
// execution model. Implementations: internal/sim (Backend()) and
// internal/live (Backend()).
type Backend interface {
	// Name identifies the backend in errors and reports ("sim", "live").
	Name() string
	// Capabilities declares the backend's feature set.
	Capabilities() Capabilities
	// NewSession prepares the execution context of one (cfg, programs)
	// cell; cfg.Seed and cfg.Context are ignored in favor of the per-Run
	// arguments. programs[pid] runs as process pid; a single program is
	// used for every process. A session's Run returns the (possibly
	// partial) result together with any execution error, and panics if a
	// process program panics (with the original panic value).
	NewSession(cfg Config, programs ...Program) (Session, error)
}

// Result summarizes an execution in backend-neutral terms.
type Result struct {
	// Outputs holds each process's final value; value.None if it never
	// halted (crashed, cancelled, or the step limit cut the run short).
	Outputs []value.Value
	// Halted reports which processes returned from their Program.
	Halted []bool
	// Crashed reports which processes the runtime crashed (crash faults).
	Crashed []bool
	// Stalled reports which processes a stall fault froze: the process is
	// neither halted nor crashed — it holds its state forever and performs
	// no further operations until cancellation tears the execution down.
	// Allocated only when the plan contains stall faults, and omitted from
	// JSON when nil so fault-free results marshal identically to the golden
	// fixtures in internal/sim/testdata.
	Stalled []bool `json:"Stalled,omitempty"`
	// Work is the per-process operation count (the paper's individual
	// work). The Env contract prices operations identically on every
	// backend, so Work is backend-independent for the same interleaving.
	Work []int
	// TotalWork is the total operation count (the paper's total work).
	TotalWork int
	// Steps counts scheduled operations. On sim it equals TotalWork (one
	// operation per scheduled step); backends without a global step
	// sequence report TotalWork here too. Excluded from JSON so results
	// marshal identically to the pre-seam golden fixtures that pin engine
	// equivalence (internal/sim/testdata).
	Steps int `json:"-"`
	// Trace is the recorded execution when tracing was requested and the
	// backend supports it; nil otherwise. Excluded from JSON for the same
	// reason as Steps (traces have their own JSON encoding in
	// internal/trace).
	Trace *trace.Log `json:"-"`
}

// NewResult allocates a Result for n processes with all outputs ⊥.
func NewResult(n int) *Result {
	r := &Result{
		Outputs: make([]value.Value, n),
		Halted:  make([]bool, n),
		Crashed: make([]bool, n),
		Work:    make([]int, n),
	}
	for i := range r.Outputs {
		r.Outputs[i] = value.None
	}
	return r
}

// MaxIndividualWork returns max over processes of Work.
func (r *Result) MaxIndividualWork() int {
	m := 0
	for _, w := range r.Work {
		if w > m {
			m = w
		}
	}
	return m
}

// HaltedOutputs returns the outputs of processes that halted.
func (r *Result) HaltedOutputs() []value.Value {
	var out []value.Value
	for pid, h := range r.Halted {
		if h {
			out = append(out, r.Outputs[pid])
		}
	}
	return out
}

// Programs resolves a 1-or-N program slice to exactly one program per
// process, broadcasting a single program to all n. Backends share this so
// the overload rule cannot drift between them.
func Programs(n int, programs []Program) ([]Program, error) {
	switch len(programs) {
	case n:
		return programs, nil
	case 1:
		one := programs[0]
		out := make([]Program, n)
		for i := range out {
			out[i] = one
		}
		return out, nil
	default:
		return nil, fmt.Errorf("exec: got %d programs for %d processes", len(programs), n)
	}
}

// TrialSeed derives the seed of trial i from a sweep's root seed. It is a
// pure function (splitmix64-style finalizers over root and index), so a
// sweep's per-trial seeds are reproducible across machines, worker counts,
// and backends; distinct (root, index) pairs give statistically independent
// streams. The scheme is documented in README.md ("Reproducibility").
// internal/harness re-exports it; it lives here so every backend and
// driver derives seeds the same way.
func TrialSeed(root uint64, i int) uint64 {
	x := root ^ 0x9e3779b97f4a7c15
	x = mix64(x)
	x ^= uint64(i)*0xd1b54a32d192ed03 + 0x8cb92ba72f3d8dd7
	return mix64(x)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Per-process random streams are derived from the execution's root source
// with fixed split indices. Both backends MUST use these helpers: the
// derivation being shared is what makes adversary-free (single-process)
// executions bit-equivalent across backends — same coins, same
// probabilistic-write outcomes, same decisions, same op counts — which the
// cross-backend equivalence tests pin.
const (
	procCoinStream = 1         // + pid: local coin flips (cost 0)
	procProbStream = 1_000_000 // + pid: probabilistic-write coins
	semStream      = 3_000_000 // shared schedule-ordered register-semantics coins (sim)
	procSemStream  = 3_000_001 // + pid: per-process register-semantics coins (live)
)

// ProcCoins derives process pid's local-coin stream from the root source.
func ProcCoins(root *xrand.Source, pid int) *xrand.Source {
	return root.Split(uint64(procCoinStream + pid))
}

// ProcProb derives process pid's probabilistic-write coin stream from the
// root source.
func ProcProb(root *xrand.Source, pid int) *xrand.Source {
	return root.Split(uint64(procProbStream + pid))
}

// ProcCoinsInto reseeds dst in place with process pid's local-coin stream —
// the allocation-free form of ProcCoins used by reusable engines on every
// trial. The two must agree bit for bit (both go through Source.SplitInto).
func ProcCoinsInto(dst *xrand.Source, root *xrand.Source, pid int) {
	root.SplitInto(dst, uint64(procCoinStream+pid))
}

// ProcProbInto reseeds dst in place with process pid's probabilistic-write
// coin stream, the allocation-free form of ProcProb.
func ProcProbInto(dst *xrand.Source, root *xrand.Source, pid int) {
	root.SplitInto(dst, uint64(procProbStream+pid))
}

// SemCoinsInto reseeds dst in place with the execution's shared
// register-semantics stream: the coins that resolve overlapping reads under
// register.Regular on the simulator. One shared stream, consumed in
// schedule order, keeps resolution a pure function of (schedule, seed).
// Derived only when the configured model needs it, so atomic executions
// draw exactly the streams they always did.
func SemCoinsInto(dst *xrand.Source, root *xrand.Source) {
	root.SplitInto(dst, semStream)
}

// ProcSemCoins derives process pid's register-semantics stream, used by the
// live backend where there is no global schedule order to consume a shared
// stream in. Disjoint from the sim stream index by construction.
func ProcSemCoins(root *xrand.Source, pid int) *xrand.Source {
	return root.Split(uint64(procSemStream + pid))
}
