package modcon

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
)

// RatifierScheme selects the quorum system of the protocol's ratifiers
// (§6.2 of the paper). It is the recipe's Scheme.
type RatifierScheme = recipe.Scheme

const (
	// SchemeAuto picks Binary for m = 2 and Pool otherwise.
	SchemeAuto = recipe.SchemeAuto
	// SchemeBinary is the 3-register binary ratifier (m = 2 only).
	SchemeBinary = recipe.SchemeBinary
	// SchemePool is the Bollobás-optimal scheme: lg m + Θ(log log m)
	// registers.
	SchemePool = recipe.SchemePool
	// SchemeBitVector is the simpler 2⌈lg m⌉+1-register scheme.
	SchemeBitVector = recipe.SchemeBitVector
	// SchemeCollect is the cheap-collect ratifier (4 ops with cheap
	// collects).
	SchemeCollect = recipe.SchemeCollect
)

// ConciliatorKind selects the protocol's conciliator family (§5). It is the
// recipe's Conciliator.
type ConciliatorKind = recipe.Conciliator

const (
	// ConciliatorImpatient is the paper's ImpatientFirstMoverConciliator:
	// O(log n) individual work, O(n) expected total work (Theorem 7).
	ConciliatorImpatient = recipe.ConciliatorImpatient
	// ConciliatorConstantRate is the Chor–Israeli–Li / Cheung baseline with
	// fixed 1/n write probability: Θ(n) individual work.
	ConciliatorConstantRate = recipe.ConciliatorConstantRate
	// ConciliatorSharedCoin builds conciliators from voting weak shared
	// coins (§5.1; binary only).
	ConciliatorSharedCoin = recipe.ConciliatorSharedCoin
	// ConciliatorNone omits conciliators entirely: the ratifier-only
	// protocol R of §4.2, which requires a noisy or priority scheduler to
	// terminate.
	ConciliatorNone = recipe.ConciliatorNone
)

// Option configures a Consensus spec.
type Option interface {
	apply(*recipe.Spec)
}

type optionFunc func(*recipe.Spec)

func (f optionFunc) apply(s *recipe.Spec) { f(s) }

// WithScheme selects the ratifier quorum scheme.
func WithScheme(s RatifierScheme) Option {
	return optionFunc(func(spec *recipe.Spec) { spec.Scheme = s })
}

// WithConciliator selects the conciliator family.
func WithConciliator(k ConciliatorKind) Option {
	return optionFunc(func(s *recipe.Spec) { s.Conciliator = k })
}

// WithFastPath toggles the R₋₁; R₀ prefix (§4.1.1); default on.
func WithFastPath(on bool) Option {
	return optionFunc(func(s *recipe.Spec) { s.FastPath = on })
}

// WithStages truncates the chain after k (Cᵢ; Rᵢ) stages (§4.1.2); k must
// be non-negative.
func WithStages(k int) Option {
	return optionFunc(func(s *recipe.Spec) { s.Stages = k })
}

// WithFallback appends the bounded-space CIL consensus K after the last
// stage, making the protocol a consensus object for any Stages value.
func WithFallback(on bool) Option {
	return optionFunc(func(s *recipe.Spec) { s.Fallback = on })
}

// WithWriteDetection lets conciliators return immediately after a
// probabilistic write they observe to succeed (footnote 2 ablation).
func WithWriteDetection(on bool) Option {
	return optionFunc(func(s *recipe.Spec) { s.DetectWrites = on })
}

// WithCoinThreshold overrides the voting shared coin's total-vote threshold
// (default n²); only meaningful with ConciliatorSharedCoin.
func WithCoinThreshold(votes int) Option {
	return optionFunc(func(s *recipe.Spec) { s.CoinThreshold = votes })
}

// Consensus is a reusable specification of a consensus protocol for n
// processes and m values. Solve runs one execution on a built protocol
// instance and keeps the instance, with the execution session it ran on,
// for later calls.
//
// A Consensus is safe for concurrent use. Each concurrent Solve takes its
// own instance, so the spec retains at most as many instances as it has
// had concurrent Solve calls. An instance is the built protocol (about
// 170 KB with the default 512 stages, at any n) and, once two consecutive
// Solves on it share a RunConfig shape (see Solve), the session the later
// one ran on, which on the Sim backend holds n parked coroutines, and the
// goroutine that runs the instance's Solves on that session. They are
// released when the spec is garbage collected.
type Consensus struct {
	spec recipe.Spec

	mu        sync.Mutex
	free      []*harness.ProtocolInstance // instances no Solve is running on
	finalizer bool                        // release is set to run at collection
}

// take checks out a free instance, or builds one when none is free.
func (c *Consensus) take() (*harness.ProtocolInstance, error) {
	c.mu.Lock()
	var in *harness.ProtocolInstance
	if n := len(c.free); n > 0 {
		in = c.free[n-1]
		c.free = c.free[:n-1]
	}
	c.mu.Unlock()
	if in != nil {
		return in, nil
	}
	file, proto, err := c.Build()
	if err != nil {
		return nil, err
	}
	return harness.NewProtocolInstance(file, proto), nil
}

// put returns an instance to the free list. The first instance that keeps
// a session sets release as the spec's finalizer; a spec whose instances
// never keep one needs none, and is collected as soon as it is unreachable.
func (c *Consensus) put(in *harness.ProtocolInstance) {
	c.mu.Lock()
	c.free = append(c.free, in)
	if in.Open() && !c.finalizer {
		runtime.SetFinalizer(c, (*Consensus).release)
		c.finalizer = true
	}
	c.mu.Unlock()
}

// release closes the sessions of the free instances. Nothing an instance
// holds points back to the spec, so the parked coroutines cannot keep an
// unreachable spec alive.
func (c *Consensus) release() {
	c.mu.Lock()
	free := c.free
	c.free = nil
	c.mu.Unlock()
	for _, in := range free {
		in.Close()
	}
}

// New returns a consensus spec for n processes over inputs {0, …, m-1}
// assembled per the paper's recipe: fast-path ratifier pair, then
// alternating impatient conciliators and quorum ratifiers. It rejects the
// options no protocol can be built from, so a spec it returns always
// builds.
func New(n, m int, opts ...Option) (*Consensus, error) {
	spec := recipe.Spec{N: n, M: m, FastPath: true}
	for _, o := range opts {
		o.apply(&spec)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("modcon: %w", err)
	}
	return &Consensus{spec: spec}, nil
}

// NewBinary is shorthand for New(n, 2, opts...).
func NewBinary(n int, opts ...Option) (*Consensus, error) {
	return New(n, 2, opts...)
}

// N returns the process count.
func (c *Consensus) N() int { return c.spec.N }

// M returns the value-domain size.
func (c *Consensus) M() int { return c.spec.M }

// Build constructs a fresh protocol instance and the register file it lives
// in, owned by the caller. Most callers want Solve; Build exists for
// embedding the protocol in larger simulated systems.
func (c *Consensus) Build() (*Registers, *core.Protocol, error) {
	file := register.NewFile()
	proto, err := c.spec.Build(file)
	if err != nil {
		return nil, nil, fmt.Errorf("modcon: %w", err)
	}
	return file, proto, nil
}

// RunConfig tunes a single execution of Solve, SolveSequence or Simulate.
// Its fields are the ones WithBackend, WithTrace, WithCheapCollect,
// WithRegisters, WithPower, WithFaults, WithMaxSteps and WithContext set for
// Run, RunProtocol and Sweep, and both forms are validated the same way.
type RunConfig struct {
	// Backend selects the execution model (Sim, the default, or Live). On
	// Live the scheduler argument must be nil and Traced must be false.
	Backend Backend
	// Traced records the full execution in the result's Trace (Sim only).
	Traced bool
	// CheapCollect enables the O(1)-collect cost model (needed by
	// SchemeCollect to hit its 4-op bound).
	CheapCollect bool
	// Registers selects the register consistency model (zero value Atomic;
	// see RegisterModel). Interposed is Sim-only.
	Registers RegisterModel
	// Power caps the adversary information class (zero value: no cap, the
	// scheduler runs at its declared MinPower). A scheduler whose MinPower
	// exceeds the cap is rejected with ErrBadOption; Live rejects any cap
	// with ErrOptionUnsupported. See WithPower for the option-form knob.
	Power Power
	// CrashAfter crashes pid after its given operation count (legacy sugar
	// for a plan of crash faults; merged with Faults, smaller threshold
	// wins).
	CrashAfter map[int]int
	// Faults is the typed fault plan: crashes, stalls, per-op delay
	// jitter, lost probabilistic-write coins (see Faults, ParseFaults).
	// Stall faults require Context.
	Faults *FaultPlan
	// MaxSteps bounds total work (0 = simulator default).
	MaxSteps int
	// Context, if non-nil, cancels the execution between simulated steps.
	Context context.Context
}

// Outcome reports one consensus execution.
type Outcome struct {
	// Value is the agreed decision value (of the processes that decided).
	Value Value
	// Outputs holds the per-process outputs (None if crashed/undecided).
	Outputs []Value
	// Decided reports which processes decided.
	Decided []bool
	// Stage is the per-process deciding stage: 0 = fast path, i ≥ 1 = stage
	// (Cᵢ; Rᵢ), -1 = undecided or decided in the fallback.
	Stage []int
	// FellBack reports which processes decided in the fallback object.
	FellBack []bool
	// TotalWork and Work are the paper's cost measures.
	TotalWork int
	Work      []int
	// Violation is the safety violation Solve detected (also returned as
	// its error); nil for safe runs. The field exists so Trials can
	// classify a trial as violated rather than retrying it as an unknown
	// failure.
	Violation error
	// Trace is non-nil when RunConfig.Traced was set.
	Trace *Trace
}

// SafetyViolation reports the run's safety violation (nil if safe); the
// resilient trial engine uses it to classify trials. Nil-receiver-safe:
// trials whose Solve failed outright hand the classifier a nil outcome.
func (o *Outcome) SafetyViolation() error {
	if o == nil {
		return nil
	}
	return o.Violation
}

// CutShort reports that no process decided — an execution cut down by
// crashes or the step budget before the protocol could finish.
func (o *Outcome) CutShort() bool {
	if o == nil {
		return true
	}
	for _, d := range o.Decided {
		if d {
			return false
		}
	}
	return true
}

// SweepCost implements Metered: an Outcome contributes its total work and
// max individual work to sweep histograms, progress accounting, and the
// workload plane's per-trial demand measurements. Nil-receiver-safe.
func (o *Outcome) SweepCost() (steps, work int) {
	if o == nil {
		return 0, 0
	}
	return o.TotalWork, o.MaxWork()
}

// MaxWork returns the individual work (max over processes).
func (o *Outcome) MaxWork() int {
	m := 0
	for _, w := range o.Work {
		if w > m {
			m = w
		}
	}
	return m
}

// checkInputs rejects input values outside the spec's domain [0, m) before
// they reach the objects, whose quorum schemes panic on them.
func (c *Consensus) checkInputs(inputs []Value) error {
	for _, v := range inputs {
		if v.IsNone() || v < 0 || int64(v) >= int64(c.spec.M) {
			return fmt.Errorf("modcon: input %s outside [0, %d): %w", v, c.spec.M, ErrBadOption)
		}
	}
	return nil
}

// newOutcome copies what the public Outcome keeps of one protocol run into
// storage of its own, so the outcome stays valid when the session the run
// came from runs again; Solve and Sweep share it. tr is the trace the
// outcome keeps: a copy of a session-owned trace, or the run's own when the
// caller already owns it.
func newOutcome(run *harness.ProtocolRun, tr *Trace) *Outcome {
	n := len(run.Decided)
	flags, ints := make([]bool, 2*n), make([]int, 2*n)
	out := &Outcome{
		Outputs:   slices.Clone(run.Result.Outputs),
		Decided:   flags[:n:n],
		Stage:     ints[:n:n],
		FellBack:  flags[n:],
		TotalWork: run.Result.TotalWork,
		Work:      ints[n:],
		Violation: run.Violation,
		Trace:     tr,
		Value:     None,
	}
	copy(out.Decided, run.Decided)
	copy(out.Work, run.Result.Work)
	for pid := range out.Stage {
		out.Stage[pid], out.FellBack[pid] = run.DecidedStage(pid)
	}
	// Value is the first genuine decision (run.DecidedOutputs()[0]), found
	// without building the slice.
	for pid, d := range run.Decided {
		if d && run.Result.Halted[pid] {
			out.Value = run.Result.Outputs[pid]
			break
		}
	}
	return out
}

// lower is objectConfig for the entry points that take at most one
// RunConfig (Solve, SolveSequence, Simulate): c holds the entry point's own
// arguments, and the zero config stands in when none is passed.
func (c runConfig) lower(run []RunConfig) (harness.ObjectConfig, error) {
	switch len(run) {
	case 0:
	case 1:
		c.RunConfig = run[0]
	default:
		return harness.ObjectConfig{}, fmt.Errorf("modcon: pass at most one RunConfig: %w", ErrBadOption)
	}
	return c.objectConfig()
}

// Solve runs one execution with the given per-process inputs (len n, or a
// single value for all) under the adversary s — or, with
// RunConfig.Backend set to Live, under real goroutine concurrency (pass a
// nil scheduler there; the Go scheduler is the adversary). It returns an
// error for malformed configurations or step-limit exhaustion, and it
// *verifies agreement and validity* before returning: a safety violation —
// which would indicate a bug, not bad luck — is reported as an error.
//
// Solve runs on an instance from the spec's free list, building one only
// when none is free, and returns the instance once the run ends, with or
// without an error. When a run's RunConfig asks for the same backend,
// register model, tracing, cheap collects, step limit and faults as the
// instance's previous run (its shape), the instance keeps the session the
// run used and replays it for the next run of that shape. A run of another
// shape, or the instance's first, opens a session and closes it at the
// end. A kept session is used only on a goroutine the library starts with
// it and keeps beside it, so a caller that has locked its OS thread is
// safe and a Solve on a kept session starts no goroutine. The outcome
// does not depend on which instance or session ran it: it equals a Solve
// on a freshly constructed spec at the same inputs, scheduler state and
// seed. A run that panics (a custom Scheduler's bug, say) closes its
// session, stops that goroutine, abandons its instance and panics again in
// Solve with the original value. When the run replayed a kept session,
// that traceback starts at Solve and no longer shows the frames that
// panicked.
func (c *Consensus) Solve(inputs []Value, s Scheduler, seed uint64, run ...RunConfig) (*Outcome, error) {
	if err := c.checkInputs(inputs); err != nil {
		return nil, err
	}
	in, err := c.take()
	if err != nil {
		return nil, err
	}
	cfg, err := runConfig{n: c.spec.N, file: in.File(), inputs: inputs, scheduler: s, seed: seed}.lower(run)
	if err != nil {
		c.put(in)
		return nil, err
	}
	pr, err := in.Run(cfg)
	if err != nil {
		c.put(in)
		return nil, err
	}
	// The run is the instance's session's own: copy what the outcome keeps,
	// and check it, before the instance goes back. The trace is already the
	// caller's (ProtocolInstance.Run hands it over). A broadcast input is the
	// same validity reference as one input per process.
	out := newOutcome(pr, pr.Trace)
	err = pr.CheckDecisions(inputs)
	c.put(in)
	if err != nil {
		if out.Violation == nil {
			out.Violation = err
		}
		return out, fmt.Errorf("modcon: SAFETY VIOLATION (bug): %w", err)
	}
	return out, nil
}

// Sweep runs trials independent executions of this consensus spec on the
// parallel trial engine and folds the outcomes, in trial order, through
// merge. Each trial's seed derives from WithSeed's root via TrialSeed, so
// aggregates are bit-identical at any worker count. Every worker builds the
// protocol once into a pooled session and replays it per trial with that
// trial's seed, on the strict trial dispatcher: the first failing trial by
// index — an error or a panic — stops the sweep and is returned.
//
// newSched builds the adversary; it is called once per pooled session (not
// per trial) because schedulers are stateful, which is why Sweep takes a
// factory where Solve takes an instance (WithScheduler is rejected here).
// inputs, if non-nil, supplies each trial's per-process inputs (one per
// process or a single broadcast value), overriding WithInputs; inputs and
// WithInputs must not both be absent. A nil return from inputs means "use
// WithInputs", and without WithInputs it fails the sweep at that trial.
//
// Like Solve, Sweep verifies agreement and validity: the first trial (by
// index) whose execution violates safety turns into an error after the
// sweep completes, since a violation is a bug, never bad luck.
func (c *Consensus) Sweep(trials int, newSched func() Scheduler, inputs func(t Trial) []Value, merge func(t Trial, o *Outcome), opts ...RunOption) error {
	rc := buildRunConfig(opts)
	if rc.scheduler != nil {
		return fmt.Errorf("modcon: Sweep takes a scheduler factory, not WithScheduler (each pooled session needs its own stateful adversary): %w", ErrBadOption)
	}
	if inputs == nil && len(rc.inputs) == 0 {
		return fmt.Errorf("modcon: WithInputs or a per-trial inputs func is required: %w", ErrBadOption)
	}
	if err := c.checkInputs(rc.inputs); err != nil {
		return err
	}
	// A probe scheduler and an empty file stand in for each session's own
	// in the lowering.
	if newSched != nil {
		rc.scheduler = newSched()
	}
	rc.n, rc.file, rc.sweeping = c.spec.N, register.NewFile(), true
	base, err := rc.objectConfig()
	if err != nil {
		return err
	}
	spec := harness.ProtocolSweep{
		Build: func() (*core.Protocol, harness.ObjectConfig) {
			file, proto, err := c.Build()
			if err != nil {
				panic(err) // unreachable: New accepted the spec
			}
			cfg := base
			cfg.File = file
			if newSched != nil {
				cfg.Scheduler = newSched()
			}
			return proto, cfg
		},
		Inputs: inputs,
	}
	var violation error
	violationAt := trials
	err = harness.SweepProtocol(rc.sweep(trials), spec, func(t Trial, run *harness.ProtocolRun) {
		if run.Violation != nil && t.Index < violationAt {
			violation, violationAt = run.Violation, t.Index
		}
		if merge != nil {
			merge(t, newOutcome(run, run.Trace.Clone()))
		}
	})
	if err != nil {
		return err
	}
	if violation != nil {
		return fmt.Errorf("modcon: SAFETY VIOLATION (bug) in trial %d: %w", violationAt, violation)
	}
	return nil
}

// Verify re-checks an outcome against inputs (exported so examples and
// external harnesses can assert safety themselves).
func Verify(inputs []Value, o *Outcome) error {
	return check.Decisions(inputs, o.Outputs, func(pid int) bool { return o.Decided[pid] })
}
