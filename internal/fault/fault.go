// Package fault is the backend-neutral fault-injection plane.
//
// The paper's guarantees are adversarial: consensus objects must stay safe
// under crashes and hostile schedules (§2.1), and the related work shows how
// correctness erodes silently when the primitives underneath weaken
// (Hadzilacos–Hu–Toueg's regular-register consensus, Attiya–Enea–Welch's
// adversary blunting). This package turns those stress scenarios into data:
// a Plan is a typed, parseable list of faults that compiles into scheduler
// hooks for the deterministic simulator and into runtime injection points
// for the live (goroutine) backend, so both backends are stressed the same
// way by the same specification.
//
// Fault kinds:
//
//   - KindCrash — the process halts permanently after performing After
//     operations. After = 0 means the process performs no operations at
//     all. The After-th operation takes effect in shared memory, but the
//     process never observes its result (the model's crash semantics).
//   - KindCrashOnRound — the process crashes at its first operation once
//     the execution's global operation count enters round Round, where a
//     round is n consecutive global operations (round 1 = the first n).
//     This expresses round-based crash schedules from the literature
//     independent of how fast each process is scheduled.
//   - KindStall — after After operations the process stops taking steps
//     but does NOT crash: it stays in the execution, never halts, and the
//     run cannot complete. A stalled execution terminates only through
//     context cancellation, which is what the harness watchdog is for.
//   - KindDelay — every operation of the process is followed by a random
//     wall-clock delay, uniform in [0, Jitter]. On the simulator this
//     models a slow process without changing the schedule; on live it
//     perturbs the real interleaving.
//   - KindLoseCoin — each probabilistic write's coin is "lost" with
//     probability Num/Den: the process's coin stream is consumed as usual,
//     but a lost flip forces the write to fail. This degrades the
//     probabilistic-write primitive the way a weaker register would,
//     slowing termination without (if the protocol is correct) breaking
//     safety.
//
// Delay and lost-coin randomness comes from per-process fault streams
// derived from the execution seed with split indices private to this
// package — never from the process's own coin streams — so an empty or nil
// Plan leaves every execution bit-identical to a run without the fault
// plane (pinned by TestEmptyPlanBitIdentical and the sim golden fixtures).
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/modular-consensus/modcon/internal/textspec"
)

// AllProcs is the PID wildcard: the fault applies to every process.
const AllProcs = -1

// Never is the operation threshold meaning "not planned" (MaxInt).
const Never = math.MaxInt

// Kind enumerates the fault types.
type Kind int

const (
	// KindCrash crashes a process after a fixed number of its own
	// operations.
	KindCrash Kind = iota + 1
	// KindCrashOnRound crashes a process when the global execution enters
	// a given round (n operations per round).
	KindCrashOnRound
	// KindStall makes a process stop taking steps without crashing.
	KindStall
	// KindDelay adds random wall-clock delay after each operation.
	KindDelay
	// KindLoseCoin makes probabilistic-write coins fail with a given
	// probability.
	KindLoseCoin
)

// String returns the kind's canonical spec name.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindCrashOnRound:
		return "crashround"
	case KindStall:
		return "stall"
	case KindDelay:
		return "delay"
	case KindLoseCoin:
		return "losecoin"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one injection directive. Construct faults with the typed
// constructors (Crash, CrashOnRound, Stall, Delay, LoseCoin) or Parse.
type Fault struct {
	// Kind selects the fault type.
	Kind Kind
	// PID is the target process, or AllProcs for every process.
	PID int
	// After is the operation threshold for KindCrash and KindStall.
	After int
	// Round is the 1-based round for KindCrashOnRound.
	Round int
	// Jitter is the maximum per-operation delay for KindDelay.
	Jitter time.Duration
	// Num/Den is the loss probability for KindLoseCoin, kept as an exact
	// rational for the same reason xrand.Bernoulli takes one: rounding
	// through float64 would bias the very distribution being degraded.
	Num, Den uint64
}

// Crash returns a crash-after-k-operations fault. after = 0 crashes the
// process before it performs any operation.
func Crash(pid, after int) Fault { return Fault{Kind: KindCrash, PID: pid, After: after} }

// CrashOnRound returns a crash-on-round fault; rounds are 1-based blocks of
// n global operations. round <= 1 crashes the process at its first
// operation.
func CrashOnRound(pid, round int) Fault { return Fault{Kind: KindCrashOnRound, PID: pid, Round: round} }

// Stall returns a stall fault: after `after` operations the process stops
// taking steps without crashing. Executions containing stalled processes
// never complete on their own; they require a context (see the harness
// watchdog) to terminate.
func Stall(pid, after int) Fault { return Fault{Kind: KindStall, PID: pid, After: after} }

// Delay returns a per-operation delay-jitter fault: each of the process's
// operations is followed by a uniform random sleep in [0, max].
func Delay(pid int, max time.Duration) Fault { return Fault{Kind: KindDelay, PID: pid, Jitter: max} }

// LoseCoin returns a lost-coin-flip fault: each probabilistic write of the
// process fails outright with probability num/den.
func LoseCoin(pid int, num, den uint64) Fault {
	return Fault{Kind: KindLoseCoin, PID: pid, Num: num, Den: den}
}

// String renders the fault in the Parse grammar.
func (f Fault) String() string {
	pid := "*"
	if f.PID != AllProcs {
		pid = strconv.Itoa(f.PID)
	}
	switch f.Kind {
	case KindCrash, KindStall:
		return fmt.Sprintf("%s:pid=%s,after=%d", f.Kind, pid, f.After)
	case KindCrashOnRound:
		return fmt.Sprintf("%s:pid=%s,round=%d", f.Kind, pid, f.Round)
	case KindDelay:
		return fmt.Sprintf("%s:pid=%s,max=%s", f.Kind, pid, f.Jitter)
	case KindLoseCoin:
		return fmt.Sprintf("%s:pid=%s,p=%d/%d", f.Kind, pid, f.Num, f.Den)
	default:
		return fmt.Sprintf("%s:pid=%s", f.Kind, pid)
	}
}

// validate checks one fault independent of the process count.
func (f Fault) validate() error {
	if f.PID < AllProcs {
		return fmt.Errorf("fault: %s: pid %d (want >= 0, or * for all)", f.Kind, f.PID)
	}
	switch f.Kind {
	case KindCrash, KindStall:
		if f.After < 0 {
			return fmt.Errorf("fault: %s: after=%d must be >= 0", f.Kind, f.After)
		}
	case KindCrashOnRound:
		if f.Round < 0 {
			return fmt.Errorf("fault: crashround: round=%d must be >= 0", f.Round)
		}
	case KindDelay:
		if f.Jitter <= 0 {
			return fmt.Errorf("fault: delay: max=%s must be positive", f.Jitter)
		}
		if f.Jitter > time.Second {
			return fmt.Errorf("fault: delay: max=%s exceeds the 1s sanity cap", f.Jitter)
		}
	case KindLoseCoin:
		if f.Den == 0 {
			return errors.New("fault: losecoin: zero denominator")
		}
		if f.Num > f.Den {
			return fmt.Errorf("fault: losecoin: p=%d/%d exceeds 1", f.Num, f.Den)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(f.Kind))
	}
	return nil
}

// Plan is an ordered list of faults describing one execution's failure
// scenario. The zero value and nil are both the empty plan: no faults, and
// executions bit-identical to runs without the fault plane.
type Plan struct {
	// Faults holds the injection directives in specification order.
	Faults []Fault
}

// New returns a plan over the given faults.
func New(faults ...Fault) *Plan { return &Plan{Faults: faults} }

// FromCrashMap converts the legacy pid -> crash-after-k map into a plan
// (the map order is normalized so derived plans are deterministic).
func FromCrashMap(m map[int]int) *Plan {
	if len(m) == 0 {
		return nil
	}
	pids := make([]int, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	p := &Plan{Faults: make([]Fault, 0, len(pids))}
	for _, pid := range pids {
		p.Faults = append(p.Faults, Crash(pid, m[pid]))
	}
	return p
}

// Merge returns a plan containing the faults of both arguments (either or
// both may be nil; nil is returned when both are empty). The arguments are
// not mutated. When one argument is empty the other is returned as it is,
// so merging the common empty crash map into a plan costs nothing.
func Merge(a, b *Plan) *Plan {
	switch {
	case a.Empty() && b.Empty():
		return nil
	case b.Empty():
		return a
	case a.Empty():
		return b
	}
	out := &Plan{}
	if a != nil {
		out.Faults = append(out.Faults, a.Faults...)
	}
	if b != nil {
		out.Faults = append(out.Faults, b.Faults...)
	}
	return out
}

// Empty reports whether the plan (possibly nil) contains no faults.
func (p *Plan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// HasStall reports whether the plan contains any stall fault. Stalled
// executions never complete on their own, so backends require a context
// when this is true.
func (p *Plan) HasStall() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind == KindStall {
			return true
		}
	}
	return false
}

// Validate checks every fault, and, when n > 0, that concrete pids are in
// range. n <= 0 skips the range check (for parse-time validation before
// the process count is known).
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("fault: plan entry %d: %w", i, err)
		}
		if n > 0 && f.PID != AllProcs && f.PID >= n {
			return fmt.Errorf("fault: plan entry %d: pid %d out of range [0, %d)", i, f.PID, n)
		}
	}
	return nil
}

// String renders the plan in the Parse grammar: specs joined by ';'.
// Parse(p.String()) reproduces the plan exactly (the fuzz target pins
// this round trip).
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	specs := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		specs[i] = f.String()
	}
	return strings.Join(specs, ";")
}

// Parse reads a plan from its textual form, one spec per segment of the
// textspec grammar (blank segments are skipped):
//
//	kind     = crash | crashround | stall | delay | losecoin
//	pid      = integer process id, or "*" for all processes
//
//	crash:pid=2,after=5        crash pid 2 after 5 operations
//	crashround:pid=*,round=3   crash every process in global round 3
//	stall:pid=1,after=0        pid 1 never takes a step (but never halts)
//	delay:pid=*,max=200us      every op followed by a sleep in [0, 200µs]
//	losecoin:pid=*,p=1/8       probabilistic writes lose their coin w.p. 1/8
//
// losecoin probabilities accept an exact rational "num/den" or a decimal
// in [0, 1] (converted to a rational with a 2^32 denominator). The empty
// string parses to a nil plan.
func Parse(s string) (*Plan, error) {
	segs, err := textspec.Split(s)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	var p Plan
	for _, seg := range segs {
		if seg.Kind == "" {
			continue
		}
		f, err := parseSpec(seg)
		if err != nil {
			return nil, fmt.Errorf("fault: spec %q: %w", seg.Text, err)
		}
		p.Faults = append(p.Faults, f)
	}
	if p.Empty() {
		return nil, nil
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
}

// parseSpec reads one kind:k=v,... directive.
func parseSpec(seg textspec.Segment) (Fault, error) {
	kind, ok := textspec.Lookup(seg.Kind, KindCrash, KindLoseCoin)
	if !ok {
		return Fault{}, fmt.Errorf("unknown kind %q", seg.Kind)
	}
	f := Fault{Kind: kind, PID: AllProcs} // pid defaults to every process
	for _, p := range seg.Params {
		if err := f.setParam(p.Key, p.Val); err != nil {
			return Fault{}, err
		}
	}
	if err := f.requireParams(seg); err != nil {
		return Fault{}, err
	}
	return f, nil
}

// setParam applies one key=value pair to the fault under construction.
func (f *Fault) setParam(key, val string) error {
	switch key {
	case "pid":
		if val == "*" {
			f.PID = AllProcs
			return nil
		}
		pid, err := strconv.Atoi(val)
		if err != nil || pid < 0 {
			return fmt.Errorf("pid=%q (want a non-negative integer or *)", val)
		}
		f.PID = pid
	case "after":
		if f.Kind != KindCrash && f.Kind != KindStall {
			return fmt.Errorf("key %q not valid for %s", key, f.Kind)
		}
		k, err := strconv.Atoi(val)
		if err != nil || k < 0 {
			return fmt.Errorf("after=%q (want a non-negative integer)", val)
		}
		f.After = k
	case "round":
		if f.Kind != KindCrashOnRound {
			return fmt.Errorf("key %q not valid for %s", key, f.Kind)
		}
		r, err := strconv.Atoi(val)
		if err != nil || r < 0 {
			return fmt.Errorf("round=%q (want a non-negative integer)", val)
		}
		f.Round = r
	case "max":
		if f.Kind != KindDelay {
			return fmt.Errorf("key %q not valid for %s", key, f.Kind)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("max=%q: %v", val, err)
		}
		f.Jitter = d
	case "p":
		if f.Kind != KindLoseCoin {
			return fmt.Errorf("key %q not valid for %s", key, f.Kind)
		}
		num, den, err := parseProb(val)
		if err != nil {
			return err
		}
		f.Num, f.Den = num, den
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// requireParams checks that the kind's mandatory parameter was supplied.
func (f *Fault) requireParams(seg textspec.Segment) error {
	switch f.Kind {
	case KindCrash, KindStall:
		if !seg.Has("after") {
			return errors.New("missing after=")
		}
	case KindCrashOnRound:
		if !seg.Has("round") {
			return errors.New("missing round=")
		}
	case KindDelay:
		if !seg.Has("max") {
			return errors.New("missing max=")
		}
	case KindLoseCoin:
		if !seg.Has("p") {
			return errors.New("missing p=")
		}
	}
	return nil
}

// parseProb reads "num/den" exactly or a decimal in [0, 1] (converted to a
// 2^32-denominator rational).
func parseProb(val string) (num, den uint64, err error) {
	if numStr, denStr, ok := strings.Cut(val, "/"); ok {
		num, err1 := strconv.ParseUint(strings.TrimSpace(numStr), 10, 64)
		den, err2 := strconv.ParseUint(strings.TrimSpace(denStr), 10, 64)
		if err1 != nil || err2 != nil || den == 0 || num > den {
			return 0, 0, fmt.Errorf("p=%q (want num/den with 0 <= num <= den, den > 0)", val)
		}
		return num, den, nil
	}
	p, err := strconv.ParseFloat(val, 64)
	if err != nil || p < 0 || p > 1 || math.IsNaN(p) {
		return 0, 0, fmt.Errorf("p=%q (want a probability in [0, 1] or num/den)", val)
	}
	const scale = 1 << 32
	return uint64(math.Round(p * scale)), scale, nil
}
