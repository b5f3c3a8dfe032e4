package modcon

import (
	"time"

	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/harness"
)

// This file surfaces the fault plane (internal/fault) and the resilient
// trial engine's report types (internal/harness) as public API. Faults are
// backend-neutral: the same plan injects through the simulator's scheduler
// hooks and the live backend's runtime injection points, and an empty plan
// is bit-identical to a fault-free run.

// Fault plane types, re-exported from internal/fault.
type (
	// Fault is one fault specification: a kind, a target process (or
	// AllProcs), and the kind's parameters. Build them with CrashFault,
	// CrashOnRoundFault, StallFault, DelayFault, and LoseCoinFault.
	Fault = fault.Fault
	// FaultPlan is a typed set of faults carried through a run
	// configuration; build one with Faults or ParseFaults. A nil plan
	// means no faults.
	FaultPlan = fault.Plan
)

// AllProcs is the fault PID wildcard: the fault applies to every process.
const AllProcs = fault.AllProcs

// CrashFault crashes pid after its own operation count reaches after: the
// last operation takes effect, but the process never observes the result
// and performs no further operations (the paper's crash semantics). With
// after = 0 the process crashes before its first operation.
func CrashFault(pid, after int) Fault { return fault.Crash(pid, after) }

// CrashOnRoundFault crashes pid in global round r (1-based): at its first
// own operation whose 1-based global operation index is at least (r-1)*n+1.
func CrashOnRoundFault(pid, round int) Fault { return fault.CrashOnRound(pid, round) }

// StallFault freezes pid once its own operation count reaches after: the
// process is neither halted nor crashed — it holds its state and never
// takes another step. A stalled execution never finishes on its own, so
// stall faults require a context (WithContext, WithTrialDeadline, or
// RunConfig.Context); they are the canonical livelock for exercising the
// deadline watchdog.
func StallFault(pid, after int) Fault { return fault.Stall(pid, after) }

// DelayFault adds per-operation jitter to pid: each operation is followed
// by a uniform delay in [0, max]. It perturbs wall-clock interleavings
// (meaningful on the Live backend) without touching the step-count cost
// model.
func DelayFault(pid int, max time.Duration) Fault { return fault.Delay(pid, max) }

// LoseCoinFault makes each of pid's probabilistic writes fail with
// probability num/den on top of the write's own coin: the process's coin
// stream is consumed exactly as in a fault-free run, then the loss
// suppresses the write and reports it failed. Safe degradation — it can
// slow termination but never break agreement or validity.
func LoseCoinFault(pid int, num, den uint64) Fault { return fault.LoseCoin(pid, num, den) }

// Faults builds a plan from fault specifications.
func Faults(faults ...Fault) *FaultPlan { return fault.New(faults...) }

// ParseFaults parses the plan grammar, e.g.
// "crash:pid=0,after=5;stall:pid=*,after=0;losecoin:p=1/8;delay:max=200us".
// Keys are per kind (crash/stall: after; crashround: round; delay: max;
// losecoin: p as a rational "1/8" or decimal "0.125"); pid defaults to the
// "*" wildcard. Plan.String renders the same grammar back.
func ParseFaults(s string) (*FaultPlan, error) { return fault.Parse(s) }

// Resilient trial engine types, re-exported from the harness.
type (
	// TrialOutcome classifies one trial of a Trials sweep:
	// ok | violated | timeout | panicked | crashed-short | failed.
	TrialOutcome = harness.TrialOutcome
	// TrialReport is the per-trial record of a robust sweep.
	TrialReport = harness.TrialReport
	// SweepReport aggregates a robust sweep: per-outcome counts over every
	// trial and the reports of the trials not classified TrialOK, in trial
	// order, partial but correct when the sweep stops early. An ok trial's
	// report reaches only the sweep's merge callback.
	SweepReport = harness.SweepReport
)

// Trial outcome values (see TrialOutcome).
const (
	TrialOK           = harness.OutcomeOK
	TrialViolated     = harness.OutcomeViolated
	TrialTimeout      = harness.OutcomeTimeout
	TrialPanicked     = harness.OutcomePanicked
	TrialCrashedShort = harness.OutcomeCrashedShort
	TrialFailed       = harness.OutcomeFailed
)

// ErrTrialDeadline is the cancellation cause the per-trial watchdog
// attaches when a trial outlives WithTrialDeadline; errors.Is identifies
// watchdog kills wherever they surface.
var ErrTrialDeadline = harness.ErrTrialDeadline
