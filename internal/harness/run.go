// Package harness runs protocols and objects — on any exec.Backend, the
// deterministic simulator by default — many trials at a time, and aggregates
// the statistics the experiments report.
package harness

import (
	"context"
	"fmt"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/sim"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// ObjectRun is the outcome of one execution of a single deciding object.
type ObjectRun struct {
	// Result carries work accounting and halting information; its shape is
	// backend-neutral (exec.Result), so the same run type serves every
	// backend.
	Result *exec.Result
	// Decisions holds each process's (d, v) output; the zero Decision (with
	// V = 0) never occurs for legal objects, and crashed processes keep
	// Decided=false, V=None.
	Decisions []value.Decision
	// Trace is non-nil if tracing was requested.
	Trace *trace.Log
}

// Outputs returns the output values of processes that completed the object.
func (r *ObjectRun) Outputs() []value.Value {
	var out []value.Value
	for pid, h := range r.Result.Halted {
		if h {
			out = append(out, r.Decisions[pid].V)
		}
	}
	return out
}

// ObjectConfig describes one object or protocol execution.
type ObjectConfig struct {
	// N is the process count.
	N int
	// File is the register file the object was built against.
	File *register.File
	// Inputs are per-process input values (len N), or a single value used
	// by all processes.
	Inputs []value.Value
	// Backend selects the execution model; nil means the simulator.
	Backend exec.Backend
	// Scheduler is the adversary. Required by backends with adversary
	// control (sim); rejected by backends without it (live).
	Scheduler sched.Scheduler
	// Seed drives all backend-controlled randomness.
	Seed uint64
	// Traced requests a full execution trace (tracing backends only).
	Traced bool
	// CheapCollect enables the cheap-collect cost model.
	CheapCollect bool
	// Registers selects the register consistency model (zero value
	// register.Atomic). The backend rejects a model outside its
	// Capabilities.Semantics set.
	Registers register.Semantics
	// CrashAfter is legacy sugar for a plan of plain crash faults; it is
	// merged (min-threshold wins) with Faults before reaching the backend.
	CrashAfter map[int]int
	// Faults is the typed fault plan forwarded to the backend (crashes,
	// stalls, delay jitter, lost coins — see internal/fault).
	Faults *fault.Plan
	// MaxSteps is forwarded to the backend (0 = backend default).
	MaxSteps int
	// Context, if non-nil, cancels the execution at the next operation
	// boundary (forwarded to the backend).
	Context context.Context
	// Meter, if non-nil, receives a live count of executed operations
	// (forwarded to the backend; nil is free — see obs.Meter).
	Meter *obs.Meter
}

// backend resolves cfg.Backend; nil means the simulator. Options the backend
// cannot honor are rejected by the backend itself when the session is built.
func (cfg *ObjectConfig) backend() exec.Backend {
	if cfg.Backend == nil {
		return sim.Backend()
	}
	return cfg.Backend
}

// execConfig lowers an ObjectConfig to the backend-neutral exec.Config of a
// session; the seed and context are passed to each Session.Run instead.
func (cfg *ObjectConfig) execConfig(log *trace.Log) exec.Config {
	return exec.Config{
		N:            cfg.N,
		File:         cfg.File,
		Scheduler:    cfg.Scheduler,
		Trace:        log,
		CheapCollect: cfg.CheapCollect,
		Registers:    cfg.Registers,
		Faults:       cfg.faults(),
		MaxSteps:     cfg.MaxSteps,
		Meter:        cfg.Meter,
	}
}

// faults is the plan a session compiles: Faults with the legacy crash map
// merged in.
func (cfg *ObjectConfig) faults() *fault.Plan {
	return fault.Merge(cfg.Faults, fault.FromCrashMap(cfg.CrashAfter))
}

// inputs resolves cfg.Inputs to exactly one value per process. A slice of
// length N is used verbatim; a single value is broadcast to every process.
// For N == 1 the two rules coincide — a one-element slice is that process's
// input, used as given (pinned by TestInputsSingleProcessSingleInput) — so
// the resolution is written as explicit guards rather than a switch whose
// `case cfg.N` and `case 1` arms would silently collide. With no inputs and
// a per-trial hook it returns nil: the hook supplies every trial's inputs.
func (cfg *ObjectConfig) inputs(hook func(Trial) []value.Value) ([]value.Value, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("harness: N=%d must be positive", cfg.N)
	}
	if len(cfg.Inputs) == cfg.N {
		return cfg.Inputs, nil
	}
	if len(cfg.Inputs) == 1 {
		in := make([]value.Value, cfg.N)
		for i := range in {
			in[i] = cfg.Inputs[0]
		}
		return in, nil
	}
	if len(cfg.Inputs) == 0 && hook != nil {
		return nil, nil
	}
	return nil, fmt.Errorf("harness: %d inputs for %d processes", len(cfg.Inputs), cfg.N)
}

// RunObject executes obj once: every process invokes it with its input.
// It runs one trial of a fresh session — the program SweepObject replays —
// with cfg.Seed and cfg.Context, and closes it; the run keeps the closed
// session's buffers, so nothing is copied.
func RunObject(obj core.Object, cfg ObjectConfig) (*ObjectRun, error) {
	os, err := newObjectSession(obj, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer os.close()
	return os.runTrial(cfg.Context, Trial{Seed: cfg.Seed})
}

// RunProgram executes prog on every process: one trial of a fresh session,
// like RunObject and RunProtocol, for callers that write the processes' code
// themselves. cfg.Inputs is unused. The result's Trace is the recorded
// execution when cfg.Traced is set.
func RunProgram(prog exec.Program, cfg ObjectConfig) (*exec.Result, error) {
	var log *trace.Log
	if cfg.Traced {
		log = trace.New()
	}
	sess, err := cfg.backend().NewSession(cfg.execConfig(log), prog)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Run(cfg.Context, cfg.Seed)
}

// SweepCost implements Metered: total work and max individual work.
func (r *ObjectRun) SweepCost() (steps, work int) {
	return r.Result.TotalWork, r.Result.MaxIndividualWork()
}

// ProtocolRun is the outcome of one execution of a consensus protocol.
type ProtocolRun struct {
	// Result carries work accounting and halting information
	// (backend-neutral, like ObjectRun.Result).
	Result *exec.Result
	// Decided reports, per process, whether the protocol chain produced a
	// decision (false for crashed processes and chain exhaustion).
	Decided []bool
	// DecidedIdx holds, per process, the chain index at which it decided
	// (-1 if it did not). Unlike the protocol's own DecidedIndex
	// instrumentation it belongs to the run, so a parked copy keeps it
	// while the protocol instance is already executing a later pooled
	// trial; DecidedStage translates it to the paper's stage numbering.
	DecidedIdx []int32
	// Violation is the first safety violation (agreement or validity) the
	// run's online monitor observed as decisions landed; nil if the run was
	// safe. Unlike a post-hoc check, it is meaningful even when the
	// execution was cut short by a crash, stall, or cancellation.
	Violation error
	// Trace is non-nil if tracing was requested.
	Trace *trace.Log
	// stageOf translates a deciding chain index into the paper's stage
	// numbering (core.Protocol.StageOfIndex, captured from the protocol that
	// produced this run — the translation depends only on the protocol's
	// shape, so sharing it across pooled trials is safe).
	stageOf func(idx int) (stage int, fallback bool)
}

// DecidedStage translates pid's deciding chain index into the paper's stage
// numbering: 0 for the fast path, i ≥ 1 for stage (Cᵢ; Rᵢ), -1 if pid did
// not decide; fallback distinguishes a decision by the fallback object. It
// is nil-receiver-safe (returning -1, false) so robust sweeps can call it on
// failed trials.
func (r *ProtocolRun) DecidedStage(pid int) (stage int, fallback bool) {
	if r == nil || r.stageOf == nil || pid < 0 || pid >= len(r.DecidedIdx) {
		return -1, false
	}
	return r.stageOf(int(r.DecidedIdx[pid]))
}

// SafetyViolation returns the first online agreement/validity violation, or
// nil. The resilient trial engine uses it to classify trials as violated;
// it is nil-receiver-safe because failed trials hand the classifier a
// typed-nil run.
func (r *ProtocolRun) SafetyViolation() error {
	if r == nil {
		return nil
	}
	return r.Violation
}

// CutShort reports whether the execution ended with no process deciding —
// the signature of a run cut down by crashes or the step limit before the
// protocol could finish.
func (r *ProtocolRun) CutShort() bool {
	if r == nil {
		return true
	}
	for _, d := range r.Decided {
		if d {
			return false
		}
	}
	return true
}

// DecidedOutputs returns the outputs of processes that genuinely decided.
func (r *ProtocolRun) DecidedOutputs() []value.Value {
	var out []value.Value
	for pid, d := range r.Decided {
		if d && r.Result.Halted[pid] {
			out = append(out, r.Result.Outputs[pid])
		}
	}
	return out
}

// CheckDecisions verifies agreement and validity of the genuine decisions
// against inputs (one per process, or one broadcast value): it returns what
// check.Consensus(inputs, r.DecidedOutputs()) returns, without collecting
// the outputs.
func (r *ProtocolRun) CheckDecisions(inputs []value.Value) error {
	return check.Decisions(inputs, r.Result.Outputs, func(pid int) bool { return r.Decided[pid] && r.Result.Halted[pid] })
}

// RunProtocol executes a consensus protocol built by core.NewProtocol, as
// one trial of a fresh session like RunObject. Afterwards the protocol's own
// DecidedStage agrees with run.DecidedStage: Protocol.Run records every
// returning process's deciding index, and a crashed process keeps the
// protocol's previous record (-1 on a fresh protocol).
func RunProtocol(p *core.Protocol, cfg ObjectConfig) (*ProtocolRun, error) {
	ps, err := newProtocolSession(p, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer ps.close()
	return ps.runTrial(cfg.Context, Trial{Seed: cfg.Seed})
}

// SweepCost implements Metered: total work and max individual work.
func (r *ProtocolRun) SweepCost() (steps, work int) {
	return r.Result.TotalWork, r.Result.MaxIndividualWork()
}
