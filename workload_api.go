package modcon

// Public surface of the workload plane: declarative open-loop load specs,
// versioned trace record/replay, and the saturation metrics they derive.
// The machinery lives in internal/workload; this file re-exports the types
// and wires them into Trials through three options:
//
//	spec, _ := modcon.ParseWorkload("poisson:rate=2000;serve:servers=4")
//	var trace modcon.WorkloadTrace
//	report, err := modcon.Trials(1000, run, merge,
//	    modcon.WithSeed(7),
//	    modcon.WithWorkload(spec),        // the load the trials serve
//	    modcon.WithTraceRecord(&trace))   // record what actually ran
//	// ... later, anywhere:
//	report2, err := modcon.Trials(1000, run, merge,
//	    modcon.WithTraceReplay(&trace))   // re-run and verify bit-identity
//
// Replay re-executes the sweep from the trace's seed and verifies every
// trial's measured work against the recording — a divergence is a hard
// error (ErrTraceDiverged), which is what makes a recorded trace a
// portable, checkable artifact rather than a log.

import (
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/workload"
)

// Workload types, re-exported from the internal workload plane.
type (
	// WorkloadSpec is a validated, declarative load description: an
	// arrival process (poisson, burst, steady, periods, or a closed
	// cohort) plus an optional virtual service model. Build one with
	// ParseWorkload or as a literal (then Validate); its String method
	// renders the canonical grammar form.
	WorkloadSpec = workload.Spec
	// WorkloadTrace is a versioned (tracev1) recording of an executed
	// workload: the spec, the root seed, and per-trial arrival times and
	// measured step demands. Traces encode to a stable text format,
	// merge exactly across shards, and replay bit-identically.
	WorkloadTrace = workload.Trace
	// WorkloadMetrics summarizes a served workload in virtual time:
	// offered vs achieved decisions/sec, makespan, and the latency
	// distribution (a Hist, in microseconds).
	WorkloadMetrics = workload.Metrics
	// Metered is implemented by trial results that carry work accounting
	// (ObjectRun, ProtocolRun); the workload plane reads per-trial step
	// demands through it.
	Metered = harness.Metered
)

// ErrTraceDiverged marks a replayed sweep whose measured per-trial work
// differs from the trace it was replaying — the replay contract's hard
// failure. Branch with errors.Is.
var ErrTraceDiverged = errors.New("modcon: trace replay diverged from recording")

// ParseWorkload parses a workload spec from its canonical grammar, e.g.
//
//	ParseWorkload("poisson:rate=2000")
//	ParseWorkload("burst:rate=8000,on=50ms,off=150ms;serve:servers=4")
//	ParseWorkload("closed:clients=16,think=2ms")
//
// An empty string parses to (nil, nil) — no workload. Errors wrap
// ErrBadOption.
func ParseWorkload(text string) (*WorkloadSpec, error) {
	spec, err := workload.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrBadOption)
	}
	return spec, nil
}

// WithWorkload names the load a Trials sweep serves: trial i is the job
// of the i-th arrival of the spec's process (generated deterministically
// from the sweep's root seed), or of the closed cohort's next request.
// Arrivals and service live in virtual time, computed from each trial's
// measured work (WorkloadTrace.Serve), so trials still run as fast as
// workers free up, and results and aggregates are bit-identical to the
// sweep without a workload at any worker count. The spec is what
// WithTraceRecord records. A nil spec is a no-op. Only Trials honors
// workload options; Run, RunProtocol, and Consensus.Sweep ignore them.
func WithWorkload(spec *WorkloadSpec) RunOption {
	return runOptionFunc(func(c *runConfig) { c.workloadSpec = spec })
}

// WithTraceRecord records the sweep into t: after the sweep completes, t
// holds the workload spec, the root seed, and every trial's arrival time
// and measured step demand — everything needed to replay the sweep
// bit-identically (WithTraceReplay) or to derive its saturation metrics
// (WorkloadTrace.Serve) without re-running anything. Recording requires
// WithWorkload; a sweep that stops early records nothing and errors.
// Trial results must implement Metered (ObjectRun and ProtocolRun do) for
// their demands to be measured.
func WithTraceRecord(t *WorkloadTrace) RunOption {
	return runOptionFunc(func(c *runConfig) { c.traceRecord = t })
}

// WithTraceReplay re-runs a recorded workload: the sweep takes its seed
// and trial count from the trace, and after the sweep every trial's
// measured step demand is verified against the recording — any divergence
// fails the sweep with ErrTraceDiverged. Conflicting options (a non-zero
// WithSeed differing from the trace's, a trial count differing from the
// trace's, or WithWorkload) are rejected with ErrBadOption. The trace must
// be complete (an unsharded recording or an exact Merge of shard slices).
func WithTraceReplay(t *WorkloadTrace) RunOption {
	return runOptionFunc(func(c *runConfig) { c.traceReplay = t })
}

// workloadPlan is the resolved workload configuration of one Trials sweep:
// the arrival schedule a recording records and, when recording or
// replaying, the demand collector and its post-sweep obligation. The sweep
// itself never reads the schedule.
type workloadPlan struct {
	spec     *workload.Spec
	seed     uint64
	trials   int
	arrivals []int64 // arrivals to record (nil unless recording, and for a closed spec until finish)
	demands  []int64 // per-trial measured steps, filled by the merge hook
	record   *workload.Trace
	replay   *workload.Trace
}

// workloadPlan resolves the workload options against the sweep's shape,
// validating conflicts up front. It returns nil when no workload option is
// in play. On replay it adopts the trace's seed into the runConfig so the
// sweep derives identical per-trial seeds.
func (c *runConfig) workloadPlan(trials int) (*workloadPlan, error) {
	if c.workloadSpec == nil && c.traceRecord == nil && c.traceReplay == nil {
		return nil, nil
	}
	p := &workloadPlan{record: c.traceRecord, replay: c.traceReplay}
	switch {
	case p.replay != nil:
		if c.workloadSpec != nil {
			return nil, fmt.Errorf("WithTraceReplay and WithWorkload conflict (the trace carries its own spec): %w", ErrBadOption)
		}
		if p.record != nil {
			return nil, fmt.Errorf("WithTraceReplay and WithTraceRecord conflict (a replay verifies, it does not re-record): %w", ErrBadOption)
		}
		if !p.replay.Complete() {
			return nil, fmt.Errorf("WithTraceReplay needs a complete trace, got shard slice [%d,%d) of %d trials (Merge the slices first): %w",
				p.replay.Lo, p.replay.Hi, p.replay.Trials, ErrBadOption)
		}
		spec, err := p.replay.ParseSpec()
		if err != nil {
			return nil, fmt.Errorf("WithTraceReplay: %v: %w", err, ErrBadOption)
		}
		if trials != p.replay.Trials {
			return nil, fmt.Errorf("WithTraceReplay: trace records %d trials, sweep asked for %d: %w", p.replay.Trials, trials, ErrBadOption)
		}
		if c.seed != 0 && c.seed != p.replay.Seed {
			return nil, fmt.Errorf("WithTraceReplay: trace was recorded with seed %d, WithSeed(%d) conflicts: %w", p.replay.Seed, c.seed, ErrBadOption)
		}
		c.seed = p.replay.Seed
		p.spec, p.seed, p.trials = spec, p.replay.Seed, trials
	case c.workloadSpec != nil:
		if err := c.workloadSpec.Validate(); err != nil {
			return nil, fmt.Errorf("WithWorkload: %v: %w", err, ErrBadOption)
		}
		p.spec, p.seed, p.trials = c.workloadSpec, c.seed, trials
		if p.record != nil {
			arrivals, err := p.spec.RecordedArrivals(p.seed, trials, 0, trials, nil)
			if err != nil {
				return nil, fmt.Errorf("WithWorkload: %v: %w", err, ErrBadOption)
			}
			p.arrivals = arrivals
		}
	default: // record without a workload: nothing to record arrivals from
		return nil, fmt.Errorf("WithTraceRecord requires WithWorkload (a trace records a workload's execution): %w", ErrBadOption)
	}
	if p.record != nil || p.replay != nil {
		p.demands = make([]int64, trials)
	}
	return p, nil
}

// observe records one merged trial's measured work into the demand vector.
func (p *workloadPlan) observe(index int, result any) {
	if p == nil || p.demands == nil {
		return
	}
	if m, ok := result.(Metered); ok {
		steps, _ := m.SweepCost()
		p.demands[index] = int64(steps)
	}
}

// finish discharges the plan's post-sweep obligation: fill the recording,
// or verify the replay. It requires the sweep to have classified every
// trial — a partial sweep records nothing and verifies nothing.
func (p *workloadPlan) finish(report *SweepReport) error {
	if p == nil || p.demands == nil {
		return nil
	}
	if report.StoppedEarly || report.Trials != p.trials {
		return fmt.Errorf("modcon: workload trace: sweep classified %d of %d trials (stopped early); trace not usable: %w",
			report.Trials, p.trials, ErrBadOption)
	}
	if p.replay != nil {
		if err := p.replay.Verify(p.demands); err != nil {
			return fmt.Errorf("%v: %w", err, ErrTraceDiverged)
		}
		return nil
	}
	if p.arrivals == nil {
		arrivals, err := p.spec.RecordedArrivals(p.seed, p.trials, 0, p.trials, p.demands)
		if err != nil {
			return fmt.Errorf("modcon: workload trace: %v: %w", err, ErrBadOption)
		}
		p.arrivals = arrivals
	}
	tr, err := workload.Record(p.spec, p.seed, p.trials, 0, p.trials, p.arrivals, p.demands)
	if err != nil {
		return fmt.Errorf("modcon: workload trace: %v: %w", err, ErrBadOption)
	}
	*p.record = *tr
	return nil
}
