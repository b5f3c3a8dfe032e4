// Package workload is the open-loop workload plane: declarative arrival
// processes, client cohorts, a virtual-time service model, and a versioned
// trace format for recording and replaying executed workloads bit-identically.
//
// Everything the rest of the repo measures is *closed-loop*: the trial
// engine grinds executions as fast as the worker pool allows, so contention
// is whatever the scheduler produces, never an offered load anyone chose.
// This package adds the missing axis. A Spec describes how consensus
// requests arrive — a Poisson process, an on/off burst pattern, a cycling
// multi-period temporal profile, a steady deterministic drip, or a closed
// cohort of clients with think times — and the saturation driver sweeps
// offered load against achieved decisions/sec to locate the knee per
// protocol, adversary, and register model (experiment E23).
//
// Determinism is the same contract the trial engine keeps, extended to
// time: the arrival schedule is a pure function of (spec, seed, n),
// generated from a single xrand stream split off the root seed, so any
// worker or shard count sees byte-identical schedules. Latency and
// throughput are computed in *virtual* time — each trial's measured
// simulated step count, scaled by the spec's per-step duration, is served
// by a FIFO multi-server queue over the arrival schedule — so saturation
// reports are bit-identical at any parallelism and CI can gate them with
// cmp.
//
// The text grammar is internal/textspec's — segments of kind:key=value
// pairs joined by ';' — with a canonical String/Parse round trip pinned by
// a fuzz target, and the JSON codec is the same canonical text
// embedded as a JSON string, so an artifact carries one unambiguous form:
//
//	poisson:rate=500                        500 arrivals/sec, exponential gaps
//	burst:rate=800,on=50ms,off=150ms        on/off-modulated Poisson
//	steady:rate=250                         evenly spaced, randomness-free
//	periods:pattern=500x100ms/50x400ms      cycling piecewise-constant Poisson
//	closed:clients=16,think=2ms             cohort, one outstanding op each
//	poisson:rate=2000;serve:servers=4       ...served by 4 virtual servers
package workload

import (
	"fmt"
	"math"
	"time"
)

// Kind enumerates the arrival-process families a Spec can describe.
type Kind int

const (
	// Poisson is the memoryless open-loop process: exponential
	// inter-arrival gaps at Spec.Rate arrivals per second.
	Poisson Kind = iota + 1
	// Burst is an on/off-modulated Poisson process: Spec.Rate arrivals/sec
	// during each On phase, silence during each Off phase, cycling.
	Burst
	// Steady is the deterministic open-loop baseline: arrivals exactly
	// 1/Rate seconds apart, consuming no randomness at all.
	Steady
	// Periods is a cycling piecewise-constant-rate Poisson process: each
	// period runs at its own rate for its span, then the next begins
	// (wrapping around). Memorylessness makes the per-period redraw exact.
	Periods
	// Closed is the closed-loop cohort: Clients clients each keep exactly
	// one operation outstanding, waiting Think after each completion
	// before issuing the next. Arrival times are assigned by the service
	// model from completions, not drawn up front.
	Closed
)

// String returns the kind's canonical grammar name.
func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Burst:
		return "burst"
	case Steady:
		return "steady"
	case Periods:
		return "periods"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Period is one segment of a Periods spec: Rate arrivals/sec for Span.
// A zero Rate is legal (a silent stretch); a cycle must contain at least
// one positive-rate period.
type Period struct {
	// Rate is the period's arrival rate in arrivals per second.
	Rate float64
	// Span is the period's duration.
	Span time.Duration
}

// Limits the validator enforces; all are sanity caps, not tuning knobs.
const (
	// MaxRate caps arrival rates (arrivals/sec).
	MaxRate = 1e9
	// MaxSpan caps phase and period durations and think times.
	MaxSpan = time.Hour
	// MaxPeriods caps the period count of a Periods spec.
	MaxPeriods = 64
	// MaxClients caps the cohort size of a Closed spec.
	MaxClients = 1 << 20
	// MaxServers caps the virtual server count of the service model.
	MaxServers = 4096
	// MaxStep caps the virtual duration of one simulated step.
	MaxStep = time.Second
)

// DefaultStep is the virtual duration of one simulated operation when the
// spec leaves Step at 0: 1µs, so a few-hundred-step consensus execution
// costs a few hundred microseconds of virtual service time.
const DefaultStep = time.Microsecond

// Spec is a validated, declarative workload description. Build one with
// Parse (the text grammar) or a struct literal followed by Validate; the
// zero value is not a valid spec. Specs are immutable once built — every
// method is read-only — and safe to share across goroutines.
type Spec struct {
	// Kind selects the arrival-process family and which fields apply.
	Kind Kind
	// Rate is the arrival rate in arrivals/sec (Poisson, Burst, Steady).
	Rate float64
	// On and Off are the phase durations of a Burst spec.
	On, Off time.Duration
	// Periods is the cycling rate profile of a Periods spec.
	Periods []Period
	// Clients is the cohort size of a Closed spec.
	Clients int
	// Think is a Closed spec's per-client pause between a completion and
	// the client's next operation; 0 is back-to-back.
	Think time.Duration
	// Servers is the virtual server count of the service model; 0 means 1.
	Servers int
	// Step is the virtual duration of one simulated step; 0 means
	// DefaultStep.
	Step time.Duration
}

// servers resolves the effective virtual server count.
func (s *Spec) servers() int {
	if s.Servers <= 0 {
		return 1
	}
	return s.Servers
}

// step resolves the effective virtual per-step duration.
func (s *Spec) step() time.Duration {
	if s.Step <= 0 {
		return DefaultStep
	}
	return s.Step
}

// rateOK checks one arrival rate against the validator's caps.
func rateOK(r float64, allowZero bool) error {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("workload: rate must be finite, got %v", r)
	}
	if r < 0 || (!allowZero && r == 0) {
		return fmt.Errorf("workload: rate must be positive, got %v", r)
	}
	if r > MaxRate {
		return fmt.Errorf("workload: rate %v exceeds the %v/sec sanity cap", r, MaxRate)
	}
	return nil
}

// spanOK checks one duration against the validator's caps.
func spanOK(name string, d time.Duration, allowZero bool) error {
	if d < 0 || (!allowZero && d == 0) {
		return fmt.Errorf("workload: %s=%v must be positive", name, d)
	}
	if d > MaxSpan {
		return fmt.Errorf("workload: %s=%v exceeds the %v sanity cap", name, d, MaxSpan)
	}
	return nil
}

// Validate checks the spec against its kind's requirements and the global
// sanity caps. Parse validates automatically; hand-built literals should
// call it before use — the generators and the service model assume a valid
// spec.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("workload: nil spec")
	}
	switch s.Kind {
	case Poisson, Steady:
		if err := rateOK(s.Rate, false); err != nil {
			return err
		}
		if s.On != 0 || s.Off != 0 || len(s.Periods) != 0 || s.Clients != 0 || s.Think != 0 {
			return fmt.Errorf("workload: %s spec carries fields of another kind", s.Kind)
		}
	case Burst:
		if err := rateOK(s.Rate, false); err != nil {
			return err
		}
		if err := spanOK("on", s.On, false); err != nil {
			return err
		}
		if err := spanOK("off", s.Off, false); err != nil {
			return err
		}
		if len(s.Periods) != 0 || s.Clients != 0 || s.Think != 0 {
			return fmt.Errorf("workload: burst spec carries fields of another kind")
		}
	case Periods:
		if len(s.Periods) == 0 {
			return fmt.Errorf("workload: periods spec needs at least one period")
		}
		if len(s.Periods) > MaxPeriods {
			return fmt.Errorf("workload: %d periods exceed the %d sanity cap", len(s.Periods), MaxPeriods)
		}
		positive := false
		for i, p := range s.Periods {
			if err := rateOK(p.Rate, true); err != nil {
				return fmt.Errorf("workload: period %d: %w", i, err)
			}
			if err := spanOK("span", p.Span, false); err != nil {
				return fmt.Errorf("workload: period %d: %w", i, err)
			}
			positive = positive || p.Rate > 0
		}
		if !positive {
			return fmt.Errorf("workload: periods spec needs at least one positive-rate period")
		}
		if s.Rate != 0 || s.On != 0 || s.Off != 0 || s.Clients != 0 || s.Think != 0 {
			return fmt.Errorf("workload: periods spec carries fields of another kind")
		}
	case Closed:
		if s.Clients < 1 || s.Clients > MaxClients {
			return fmt.Errorf("workload: clients=%d out of range [1, %d]", s.Clients, MaxClients)
		}
		if err := spanOK("think", s.Think, true); err != nil {
			return err
		}
		if s.Rate != 0 || s.On != 0 || s.Off != 0 || len(s.Periods) != 0 {
			return fmt.Errorf("workload: closed spec carries fields of another kind")
		}
	default:
		return fmt.Errorf("workload: unknown kind %d", int(s.Kind))
	}
	if s.Servers < 0 || s.Servers > MaxServers {
		return fmt.Errorf("workload: servers=%d out of range [0, %d]", s.Servers, MaxServers)
	}
	if s.Step < 0 || s.Step > MaxStep {
		return fmt.Errorf("workload: step=%v out of range (0, %v]", s.Step, MaxStep)
	}
	return nil
}

// Open reports whether the spec's arrivals are drawn up front (every kind
// but Closed, whose issue times come from completions inside the service
// model).
func (s *Spec) Open() bool { return s.Kind != Closed }

// OfferedRate returns the spec's nominal offered load in arrivals/sec:
// the rate itself for Poisson and Steady, the duty-cycle average for
// Burst, the span-weighted cycle average for Periods, and 0 for Closed
// (a closed system has no offered rate independent of service times).
func (s *Spec) OfferedRate() float64 {
	switch s.Kind {
	case Poisson, Steady:
		return s.Rate
	case Burst:
		return s.Rate * float64(s.On) / float64(s.On+s.Off)
	case Periods:
		var weighted, span float64
		for _, p := range s.Periods {
			weighted += p.Rate * float64(p.Span)
			span += float64(p.Span)
		}
		if span == 0 {
			return 0
		}
		return weighted / span
	default:
		return 0
	}
}
