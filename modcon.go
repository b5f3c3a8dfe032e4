package modcon

import (
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// Core model types, re-exported for users of the public API.
type (
	// Value is a consensus input/output value; None (⊥) marks "no value".
	Value = value.Value
	// Decision is a deciding object's annotated output (decision bit,
	// value).
	Decision = value.Decision
	// Env is the process-side view of shared memory; objects are written
	// against it.
	Env = core.Env
	// Object is a one-shot deciding object (conciliator, ratifier,
	// consensus, or any composition thereof).
	Object = core.Object
	// Scheduler is an adversary: it picks which pending operation executes
	// next, seeing only what its power class permits.
	Scheduler = sched.Scheduler
	// Power is an adversary information class (oblivious, value-oblivious,
	// location-oblivious, adaptive).
	Power = sched.Power
	// Registers is a shared register file protocols allocate from.
	Registers = register.File
	// RegisterModel is a register consistency model: Atomic (the paper's
	// base model, the default), Regular (a read overlapping a write may
	// return either the old or the new value), or Interposed (a
	// linearizable interposition that hides in-flight operation contents
	// from strong adversaries). Select one with WithRegisters.
	RegisterModel = register.Semantics
	// Trace is a recorded execution.
	Trace = trace.Log
)

// None is the null value ⊥.
const None = value.None

// Adversary power classes (§2.1 of the paper).
const (
	Oblivious         = sched.Oblivious
	ValueOblivious    = sched.ValueOblivious
	LocationOblivious = sched.LocationOblivious
	Adaptive          = sched.Adaptive
)

// Register consistency models (see RegisterModel and WithRegisters).
const (
	// Atomic registers linearize every operation at its execution step: a
	// read returns exactly the latest completed write. This is the paper's
	// base model and the default.
	Atomic = register.Atomic
	// Regular registers weaken reads that overlap a write: such a read may
	// return either the old or the new value (Lamport's regularity). Both
	// backends implement it; on Sim the old/new resolution is a
	// deterministic function of the schedule and seed.
	Regular = register.Regular
	// Interposed registers are atomic registers behind a linearizable
	// interposition that hides the contents of in-flight operations from
	// the adversary, blunting value-aware scheduling attacks. Sim-only:
	// the live backend has no adversary whose view could be blunted.
	Interposed = register.Interposed
)

// Decide constructs a (1, v) decision.
func Decide(v Value) Decision { return value.Decide(v) }

// Continue constructs a (0, v) non-decision.
func Continue(v Value) Decision { return value.Continue(v) }

// Compose sequentially composes deciding objects: a decision by any object
// terminates the composite immediately (§3.2).
func Compose(objs ...Object) Object { return core.Compose(objs...) }

// NewRegisters returns an empty register file.
func NewRegisters() *Registers { return register.NewFile() }

// Adversary constructors. Each returns a fresh, stateful scheduler; do not
// reuse one scheduler across executions.
var (
	// NewRoundRobin cycles through live processes (oblivious).
	NewRoundRobin = sched.NewRoundRobin
	// NewFixedOrder repeats a fixed permutation of the pids (oblivious);
	// it panics on a perm that is not a permutation.
	NewFixedOrder = sched.NewFixedOrder
	// NewUniformRandom picks a uniformly random live process (oblivious).
	NewUniformRandom = sched.NewUniformRandom
	// NewLaggard keeps all processes in lockstep (oblivious).
	NewLaggard = sched.NewLaggard
	// NewFrontrunner lets one process run solo (oblivious).
	NewFrontrunner = sched.NewFrontrunner
	// NewNoisy is the noisy scheduler of §4.2: planned step times with
	// cumulative Gaussian jitter.
	NewNoisy = sched.NewNoisy
	// NewPriority always runs the highest-priority pending process (§4.2);
	// non-nil ranks must hold one rank per process.
	NewPriority = sched.NewPriority
	// NewFirstMoverAttack is the location-oblivious adversary from the
	// Theorem 7 analysis, tuned against first-mover conciliators.
	NewFirstMoverAttack = sched.NewFirstMoverAttack
	// NewEagerWriteAttack is a simpler location-oblivious attack.
	NewEagerWriteAttack = sched.NewEagerWriteAttack
	// NewSplitVote is a value-oblivious strategy exercising skewed
	// interleavings.
	NewSplitVote = sched.NewSplitVote
	// NewAdaptiveSpoiler is a strong-adversary strategy that targets
	// conflicting deterministic writes.
	NewAdaptiveSpoiler = sched.NewAdaptiveSpoiler
	// NewStaleReadAttack is a value-oblivious strategy that fires writes
	// over registers with pending reads and then releases the reads — the
	// interleaving under which regular registers (WithRegisters(file,
	// Regular)) may return stale values that atomic registers forbid.
	NewStaleReadAttack = sched.NewStaleReadAttack
	// NewParametric builds a configurable adversary from a
	// ParametricConfig — the scheduler family the adversary search
	// (cmd/modcon-bench -search) explores. For the text form, see
	// NewSearchedScheduler and WithSearchedScheduler.
	NewParametric = sched.NewParametric
	// ParseParametric parses a parametric adversary config from its
	// canonical text form (the form search reports and winner names use).
	ParseParametric = sched.ParseParametric
)

// ParametricConfig describes one adversary in the parametric scheduler
// family: a base policy plus per-pid weights, stall/burst phases, and
// condition→action rules. Its String method emits the canonical text config
// that ParseParametric, NewSearchedScheduler, and WithSearchedScheduler
// accept.
type ParametricConfig = sched.ParamConfig
