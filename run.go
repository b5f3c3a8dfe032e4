package modcon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/sched"
)

// This file is the package's top-level run API: single executions of objects
// and protocols (Run, RunProtocol) and parallel Monte-Carlo sweeps (Trials),
// all configured through functional options — the same idiom the consensus
// spec options in consensus.go use — instead of raw config struct literals.

// Execution result types, re-exported from the harness.
type (
	// ObjectRun is the outcome of one execution of a deciding object.
	ObjectRun = harness.ObjectRun
	// ProtocolRun is the outcome of one execution of a consensus protocol.
	ProtocolRun = harness.ProtocolRun
	// Protocol is an assembled consensus protocol instance (one-shot);
	// build one with Consensus.Build.
	Protocol = core.Protocol
	// Trial identifies one execution of a Trials sweep: its index and the
	// seed derived for it from the sweep's root seed.
	Trial = harness.Trial
)

// Observability types, re-exported from the internal obs plane.
type (
	// Hist is a deterministic streaming histogram: exact n/sum/min/max,
	// dense unit buckets for small values and log2 buckets above, with
	// nearest-rank quantiles (P50/P90/P99). Merging is commutative and
	// exact, so aggregates are bit-identical at any worker count; see
	// WithHistograms.
	Hist = obs.Hist
	// ProgressSnapshot is one throttled progress observation of a running
	// sweep (trials done, trials/sec, ETA, violation count); see
	// WithProgressSink.
	ProgressSnapshot = obs.Snapshot
	// ProgressSink consumes progress snapshots; see TextProgress and
	// JSONProgress for the built-in sinks.
	ProgressSink = obs.Sink
	// Meter is a live atomic step counter an execution increments as it
	// runs, letting progress snapshots move inside long trials; see
	// WithMeter. A nil Meter costs nothing on the hot path.
	Meter = obs.Meter
)

// TextProgress returns a ProgressSink that writes one human-readable line
// per snapshot, e.g.
//
//	trials 620/1000 (62.0%)  41.3/s  eta 9s  violations 0
func TextProgress(w io.Writer) ProgressSink { return obs.Text(w) }

// JSONProgress returns a ProgressSink that writes each snapshot as one JSON
// object per line (JSON Lines), for machine consumption.
func JSONProgress(w io.Writer) ProgressSink { return obs.JSONLines(w) }

// Typed option-validation sentinels. Every configuration error the run API
// reports wraps one of these, so callers can branch with errors.Is instead
// of matching message strings (which remain precise and actionable).
var (
	// ErrOptionUnsupported marks an option the selected backend cannot
	// honor — e.g. WithScheduler or WithTrace on the Live backend, which has
	// no adversary control and no global step sequence.
	ErrOptionUnsupported = errors.New("modcon: option unsupported by backend")
	// ErrBadOption marks a missing or invalid option value — e.g. a
	// non-positive WithN, a missing WithRegisters or WithInputs, or an
	// unknown backend.
	ErrBadOption = errors.New("modcon: missing or invalid option")
)

// RunOption configures Run, RunProtocol, and Trials executions.
type RunOption interface {
	applyRun(*runConfig)
}

type runOptionFunc func(*runConfig)

func (f runOptionFunc) applyRun(c *runConfig) { f(c) }

// runConfig is what the options, or an entry point's arguments, configure.
// The execution fields are RunConfig's own: the options that mirror them set
// them directly, so both vocabularies lower through objectConfig.
type runConfig struct {
	RunConfig
	n         int
	file      *Registers
	inputs    []Value
	scheduler Scheduler
	schedErr  error
	seed      uint64
	// program marks an execution whose processes run a program of their
	// own (Simulate, SolveSequence), so it takes no inputs.
	program bool
	// sweeping marks Sweep's lowering: its trials run under contexts the
	// dispatcher supplies, so a stall plan needs no Context.
	sweeping     bool
	workers      int
	sink         ProgressSink
	sinkInterval time.Duration
	stepsHist    *Hist
	workHist     *Hist
	meter        *Meter
	deadline     time.Duration
	retries      int
	failFast     bool
	workloadSpec *WorkloadSpec
	traceRecord  *WorkloadTrace
	traceReplay  *WorkloadTrace
}

// WithN sets the process count (required for Run and RunProtocol).
func WithN(n int) RunOption {
	return runOptionFunc(func(c *runConfig) { c.n = n })
}

// WithRegisters names the register file the object or protocol was built
// against (required: objects allocate their registers at construction) and,
// optionally, the register consistency model the execution should honor:
//
//	WithRegisters(file)              // atomic registers (the default)
//	WithRegisters(file, Regular)     // reads overlapping writes may be stale
//	WithRegisters(file, Interposed)  // adversary-blunting interposition (Sim)
//
// Models a backend does not implement are rejected with
// ErrOptionUnsupported; see RegisterModel for what each model means.
func WithRegisters(file *Registers, model ...RegisterModel) RunOption {
	return runOptionFunc(func(c *runConfig) {
		c.file = file
		if len(model) > 0 {
			c.Registers = model[len(model)-1]
		}
	})
}

// WithInputs sets per-process input values: one per process, or a single
// value broadcast to all (required).
func WithInputs(vs ...Value) RunOption {
	return runOptionFunc(func(c *runConfig) { c.inputs = vs })
}

// WithBackend selects the execution model: Sim (the default — deterministic
// simulator with an explicit adversary) or Live (free-running goroutines
// over atomic registers). Sim-only options (WithScheduler, WithTrace) are
// rejected with a clear error on backends that cannot honor them.
func WithBackend(b Backend) RunOption {
	return runOptionFunc(func(c *runConfig) { c.Backend = b })
}

// WithScheduler sets the adversary (required on the Sim backend; rejected
// on Live, which has no adversary control). Schedulers are stateful — pass
// a fresh one per execution.
func WithScheduler(s Scheduler) RunOption {
	return runOptionFunc(func(c *runConfig) { c.scheduler = s })
}

// WithSearchedScheduler sets the adversary from a parametric scheduler
// config in the canonical text form emitted by the adversary search
// (internal/advsearch via cmd/modcon-bench -search), e.g.
//
//	WithSearchedScheduler("adv:power=value-oblivious,base=lockstep;rule:when=prob-pending,do=hold-prob")
//
// It is WithScheduler for named, reproducible adversaries: the config string
// is the scheduler's identity, so a found worst case can be replayed from a
// report without any Go code. A malformed config is reported (wrapping
// ErrBadOption) when the run is built, not here.
func WithSearchedScheduler(config string) RunOption {
	return runOptionFunc(func(c *runConfig) {
		s, err := sched.NewParametricFromString(config)
		if err != nil {
			c.schedErr = err
			return
		}
		c.scheduler = s
	})
}

// WithPower caps the adversary information class of a Sim execution: a
// scheduler whose MinPower exceeds the cap is rejected with ErrBadOption
// before anything runs. The zero value means "no cap" (each scheduler runs
// at exactly its declared MinPower); the Live backend rejects any cap with
// ErrOptionUnsupported, having no adversary to cap.
func WithPower(p Power) RunOption {
	return runOptionFunc(func(c *runConfig) { c.Power = p })
}

// NewSearchedScheduler builds a parametric adversary from its canonical
// config text — the factory-shaped companion of WithSearchedScheduler for
// APIs that take scheduler factories (Consensus.Sweep). The returned
// scheduler is stateful like every adversary; build a fresh one per factory
// call.
func NewSearchedScheduler(config string) (Scheduler, error) {
	s, err := sched.NewParametricFromString(config)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrBadOption)
	}
	return s, nil
}

// WithSeed sets the seed driving all randomness (for Trials, the root seed
// that per-trial seeds are derived from).
func WithSeed(seed uint64) RunOption {
	return runOptionFunc(func(c *runConfig) { c.seed = seed })
}

// WithTrace requests a full execution trace in the run's Trace field.
func WithTrace(on bool) RunOption {
	return runOptionFunc(func(c *runConfig) { c.Traced = on })
}

// WithContext attaches a context: the execution (or, for Trials, the whole
// sweep and every in-flight execution) is cancelled between simulated steps
// when the context expires.
func WithContext(ctx context.Context) RunOption {
	return runOptionFunc(func(c *runConfig) { c.Context = ctx })
}

// WithWorkers caps the concurrency of a Trials sweep; 0 (the default) uses
// GOMAXPROCS. Aggregates are bit-identical at any worker count. Run and
// RunProtocol ignore it.
func WithWorkers(workers int) RunOption {
	return runOptionFunc(func(c *runConfig) { c.workers = workers })
}

// WithMaxSteps bounds an execution's total work (0 = simulator default).
func WithMaxSteps(steps int) RunOption {
	return runOptionFunc(func(c *runConfig) { c.MaxSteps = steps })
}

// WithFaults injects the given faults into the execution (or, for a
// Consensus.Sweep, into every trial): crashes, stalls, per-op delay
// jitter, lost probabilistic-write coins — on either backend. Repeated use
// accumulates; see also WithFaultPlan for a pre-built or parsed plan.
func WithFaults(faults ...Fault) RunOption {
	return runOptionFunc(func(c *runConfig) { c.Faults = fault.Merge(c.Faults, fault.New(faults...)) })
}

// WithFaultPlan injects a pre-built fault plan (see Faults, ParseFaults),
// merging with any faults configured so far. A nil plan is a no-op.
func WithFaultPlan(p *FaultPlan) RunOption {
	return runOptionFunc(func(c *runConfig) { c.Faults = fault.Merge(c.Faults, p) })
}

// WithTrialDeadline arms Trials' per-trial watchdog: a trial still running
// after d — livelocked by stall faults, stuck, or just unlucky — is
// cancelled (cause ErrTrialDeadline) and classified TrialTimeout while the
// rest of the sweep continues. Run, RunProtocol, and Consensus.Sweep ignore
// it.
func WithTrialDeadline(d time.Duration) RunOption {
	return runOptionFunc(func(c *runConfig) { c.deadline = d })
}

// WithRetries lets Trials re-attempt a trial that failed with an
// infrastructure error up to n times (exponential backoff). Model-level
// outcomes — violations, timeouts, panics, step-limit exhaustion — are
// never retried.
func WithRetries(n int) RunOption {
	return runOptionFunc(func(c *runConfig) { c.retries = n })
}

// WithFailFast makes Trials stop the sweep at the first safety violation,
// keeping the partial report.
func WithFailFast(on bool) RunOption {
	return runOptionFunc(func(c *runConfig) { c.failFast = on })
}

// WithCheapCollect enables the O(1)-collect cost model (§6.2, choice 4).
func WithCheapCollect(on bool) RunOption {
	return runOptionFunc(func(c *runConfig) { c.CheapCollect = on })
}

// WithProgressSink streams throttled progress snapshots (trials done,
// trials/sec, ETA, violation count) from a Trials or Consensus.Sweep sweep
// to sink, at most one per interval plus always the final snapshot; a
// non-positive interval emits every observation. See TextProgress and
// JSONProgress. Run and RunProtocol ignore it.
func WithProgressSink(sink ProgressSink, interval time.Duration) RunOption {
	return runOptionFunc(func(c *runConfig) {
		c.sink = sink
		c.sinkInterval = interval
	})
}

// WithHistograms accumulates per-trial step and work distributions from a
// Trials or Consensus.Sweep sweep into the given histograms (either may be
// nil). Trials whose results carry step/work measures (ObjectRun,
// ProtocolRun, Outcome) feed both; the aggregates are bit-identical at any
// worker count for the same seed. Run and RunProtocol ignore it.
func WithHistograms(steps, work *Hist) RunOption {
	return runOptionFunc(func(c *runConfig) {
		c.stepsHist = steps
		c.workHist = work
	})
}

// WithMeter attaches a live step counter to executions: Run and RunProtocol
// increment it once per executed operation, and a Trials sweep configured
// with the same meter reports its running total in progress snapshots — so
// progress moves even inside long trials. A nil meter (the default) costs
// one predictable branch per step and nothing else.
func WithMeter(m *Meter) RunOption {
	return runOptionFunc(func(c *runConfig) { c.meter = m })
}

func buildRunConfig(opts []RunOption) runConfig {
	var c runConfig
	for _, o := range opts {
		o.applyRun(&c)
	}
	return c
}

// objectConfig is the one lowering of an execution's configuration: Run,
// RunProtocol, Solve, SolveSequence, Simulate and Sweep all validate through
// it, before anything runs, and execute the harness config it builds. Every
// error wraps ErrBadOption or ErrOptionUnsupported.
func (c *runConfig) objectConfig() (harness.ObjectConfig, error) {
	if c.n <= 0 {
		return harness.ObjectConfig{}, fmt.Errorf("the process count n=%d must be positive (WithN): %w", c.n, ErrBadOption)
	}
	if c.file == nil {
		return harness.ObjectConfig{}, fmt.Errorf("a register file is required (WithRegisters): objects run in the file they were built against: %w", ErrBadOption)
	}
	if c.schedErr != nil {
		return harness.ObjectConfig{}, fmt.Errorf("WithSearchedScheduler: %v: %w", c.schedErr, ErrBadOption)
	}
	be, err := c.Backend.impl()
	if err != nil {
		return harness.ObjectConfig{}, err
	}
	if err := c.validateOptions(be); err != nil {
		return harness.ObjectConfig{}, err
	}
	switch {
	case c.program:
	case c.sweeping && len(c.inputs) == 0:
		// Sweep has checked that its per-trial inputs func stands in.
	case len(c.inputs) == 0:
		return harness.ObjectConfig{}, fmt.Errorf("inputs are required (WithInputs): %w", ErrBadOption)
	case len(c.inputs) != 1 && len(c.inputs) != c.n:
		return harness.ObjectConfig{}, fmt.Errorf("%d inputs for %d processes (pass one per process, or one for all): %w", len(c.inputs), c.n, ErrBadOption)
	}
	if err := c.Faults.Validate(c.n); err != nil {
		return harness.ObjectConfig{}, fmt.Errorf("%v: %w", err, ErrBadOption)
	}
	if err := fault.FromCrashMap(c.CrashAfter).Validate(c.n); err != nil {
		return harness.ObjectConfig{}, fmt.Errorf("CrashAfter: %v: %w", err, ErrBadOption)
	}
	if !c.sweeping && c.Context == nil && c.Faults.HasStall() {
		return harness.ObjectConfig{}, fmt.Errorf("stall faults require a Context (WithContext): a stalled process never halts, so only cancellation ends the execution: %w", ErrBadOption)
	}
	return harness.ObjectConfig{
		N:            c.n,
		File:         c.file,
		Inputs:       c.inputs,
		Backend:      be,
		Scheduler:    c.scheduler,
		Seed:         c.seed,
		Traced:       c.Traced,
		CheapCollect: c.CheapCollect,
		Registers:    c.Registers,
		CrashAfter:   c.CrashAfter,
		Faults:       c.Faults,
		MaxSteps:     c.MaxSteps,
		Context:      c.Context,
		Meter:        c.meter,
	}, nil
}

// sweep builds the trial-engine configuration shared by Trials and
// Consensus.Sweep.
func (c *runConfig) sweep(trials int) harness.Sweep {
	var reporter *obs.Reporter
	if c.sink != nil {
		reporter = obs.NewReporter(c.sink, c.sinkInterval)
	}
	return harness.Sweep{
		Trials:    trials,
		Workers:   c.workers,
		Seed:      c.seed,
		Context:   c.Context,
		Reporter:  reporter,
		StepsHist: c.stepsHist,
		WorkHist:  c.workHist,
		Meter:     c.meter,
	}
}

// Run executes a deciding object once: every process invokes it with its
// input under the configured adversary.
//
//	file := modcon.NewRegisters()
//	c := modcon.NewImpatientConciliator(file, n, 1)
//	run, err := modcon.Run(c,
//	    modcon.WithRegisters(file), modcon.WithN(n),
//	    modcon.WithInputs(0, 1, 0, 1),
//	    modcon.WithScheduler(modcon.NewUniformRandom()),
//	    modcon.WithSeed(7))
func Run(obj Object, opts ...RunOption) (*ObjectRun, error) {
	c := buildRunConfig(opts)
	cfg, err := c.objectConfig()
	if err != nil {
		return nil, err
	}
	return harness.RunObject(obj, cfg)
}

// RunProtocol executes an assembled consensus protocol once (see
// Consensus.Build); unlike Consensus.Solve it exposes the raw run without
// input-domain validation or safety checking, for embedding protocols in
// larger simulated systems.
func RunProtocol(p *Protocol, opts ...RunOption) (*ProtocolRun, error) {
	c := buildRunConfig(opts)
	cfg, err := c.objectConfig()
	if err != nil {
		return nil, err
	}
	return harness.RunProtocol(p, cfg)
}

// Trials runs trials independent executions on a worker pool, folds their
// results in trial order, and returns a SweepReport that counts every
// trial's classification and keeps the reports of the trials not
// classified TrialOK. Its Trials field counts the classified trials, ok or
// not; an ok trial's report reaches only merge, so a sweep's memory does
// not grow with its trial count.
//
// run is called concurrently, once per trial; it must create all per-trial
// state (register files, objects, schedulers) fresh — or replay a reusable
// session — seed the execution with t.Seed, and thread ctx into it
// (WithContext) so cancellation reaches in-flight executions. merge, which
// may be nil, is called one trial at a time, in trial-index order
// regardless of completion order, on the sweep's worker goroutines — so
// aggregates accumulated there are bit-identical at any worker count for
// the same root seed (see WithSeed, WithWorkers), and a panic in merge is
// raised again in the caller once the workers have exited. It also
// receives each trial's TrialReport; for non-ok outcomes the result may be
// partial or zero. A worker runs no trial a window (16 trials per worker)
// or more beyond the next trial to merge, so a trial must not wait for a
// trial that far beyond it.
//
// Trials degrades gracefully instead of aborting: every trial is classified
// (TrialOK, TrialViolated on an online safety violation, TrialTimeout when
// the WithTrialDeadline watchdog kills a livelocked trial, TrialPanicked
// with the panic contained to the trial, TrialCrashedShort when nothing
// decided, TrialFailed after WithRetries infrastructure retries) and the
// sweep always returns its partial aggregates in the SweepReport.
//
// Recognized options: WithSeed, WithWorkers, WithContext,
// WithProgressSink, WithHistograms, WithMeter, WithTrialDeadline,
// WithRetries, WithFailFast, WithWorkload, WithTraceRecord,
// WithTraceReplay. The error is nil unless the sweep's context was
// cancelled externally, a workload option conflicted, or a trace replay
// diverged from its recording (ErrTraceDiverged).
func Trials[T any](trials int, run func(ctx context.Context, t Trial) (T, error), merge func(t Trial, result T, rep TrialReport), opts ...RunOption) (*SweepReport, error) {
	c := buildRunConfig(opts)
	wl, err := c.workloadPlan(trials)
	if err != nil {
		return nil, err
	}
	mergeFn := merge
	if wl != nil && wl.demands != nil {
		mergeFn = func(t Trial, result T, rep TrialReport) {
			wl.observe(t.Index, any(result))
			if merge != nil {
				merge(t, result, rep)
			}
		}
	}
	report, err := harness.RunTrialsRobust(c.sweep(trials), harness.Resilience{
		Deadline: c.deadline,
		Retries:  c.retries,
		FailFast: c.failFast,
	}, run, mergeFn)
	if err != nil {
		return report, err
	}
	if err := wl.finish(report); err != nil {
		return report, err
	}
	return report, nil
}
