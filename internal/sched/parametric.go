package sched

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/modular-consensus/modcon/internal/textspec"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// This file defines the parameterized adversary family behind
// internal/advsearch: a single scheduler shape whose knobs (base policy,
// per-pid weights, stall/burst phases, and condition→action rules) span the
// hand-written attack catalog, plus a canonical text codec so any point in
// the family is a named, reproducible config.
//
// Grammar: a config is a text in the internal/textspec grammar, one spec
// per segment, and blank segments are errors. The first spec must be kind
// "adv" (the family head); every following spec is a "rule":
//
//	adv:power=<class>,base=<policy>[,w=W0:W1:...][,phase=P/B/F]
//	rule:when=<cond>[:K],do=<act>
//
// Rules are consulted in order on every scheduling decision: the first rule
// whose condition holds and whose action yields a runnable pid wins;
// otherwise the base policy decides over the phase-restricted candidate set.
// ParseParametric and ParamConfig.String round-trip: String emits the
// canonical spelling, and parsing the canonical spelling reproduces the
// config exactly (FuzzParseParametric pins this).

// BasePolicy is the fallback scheduling policy of a Parametric adversary,
// used when no rule fires. All base policies are implementable by an
// oblivious adversary.
type BasePolicy int

const (
	// BaseRoundRobin cycles through the candidate pids.
	BaseRoundRobin BasePolicy = iota + 1
	// BaseLockstep picks the candidate scheduled fewest times so far,
	// keeping processes maximally synchronized (the Laggard shape).
	BaseLockstep
	// BaseFrontrun picks the candidate scheduled most times so far, driving
	// one process far ahead of the rest.
	BaseFrontrun
	// BaseRandom picks a candidate uniformly from the adversary's private
	// randomness stream.
	BaseRandom
	// BaseWeighted picks the candidate with the largest weight (ties to the
	// lowest pid); weights index per pid modulo the weight vector length.
	BaseWeighted
)

// String names the base policy in the config grammar.
func (b BasePolicy) String() string {
	switch b {
	case BaseRoundRobin:
		return "rr"
	case BaseLockstep:
		return "lockstep"
	case BaseFrontrun:
		return "frontrun"
	case BaseRandom:
		return "random"
	case BaseWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("base(%d)", int(b))
	}
}

// Cond is a rule trigger condition over the adversary's view.
type Cond int

const (
	// CondAlways holds on every step.
	CondAlways Cond = iota + 1
	// CondStepGE holds once the execution's work count reaches K.
	CondStepGE
	// CondStepLT holds while the execution's work count is below K.
	CondStepLT
	// CondProbPending holds when any runnable process has a pending
	// probabilistic write (needs operation-type visibility).
	CondProbPending
	// CondAllProb holds when every runnable process has a pending
	// probabilistic write — the pool is full (needs type visibility).
	CondAllProb
	// CondInFlight holds when any pending write is in its invoke/take-effect
	// window under non-atomic register semantics (needs type visibility;
	// never holds under register.Atomic).
	CondInFlight
	// CondMemWritten holds once any visible register holds a non-⊥ value
	// (needs memory visibility).
	CondMemWritten
	// CondConflict holds when some pending write's value differs from the
	// first written register's content (needs memory and value visibility).
	CondConflict
)

// String names the condition in the config grammar (without the :K argument
// of the step conditions).
func (c Cond) String() string {
	switch c {
	case CondAlways:
		return "always"
	case CondStepGE:
		return "step-ge"
	case CondStepLT:
		return "step-lt"
	case CondProbPending:
		return "prob-pending"
	case CondAllProb:
		return "all-prob"
	case CondInFlight:
		return "in-flight"
	case CondMemWritten:
		return "mem-written"
	case CondConflict:
		return "conflict"
	default:
		return fmt.Sprintf("cond(%d)", int(c))
	}
}

// condPower returns the weakest class that may evaluate the condition.
func condPower(c Cond) Power {
	switch c {
	case CondAlways, CondStepGE, CondStepLT:
		return Oblivious
	case CondProbPending, CondAllProb, CondInFlight:
		return ValueOblivious
	default:
		return LocationOblivious
	}
}

// Act is a rule action: a targeted choice among the candidate pids. An
// action that matches no candidate yields nothing and the next rule (or the
// base policy) decides.
type Act int

const (
	// ActLowest picks the lowest candidate pid.
	ActLowest Act = iota + 1
	// ActWeighted picks the largest-weight candidate (ties to lowest pid).
	ActWeighted
	// ActHoldProb picks a candidate whose pending operation is NOT a
	// probabilistic write — holding attempts back to grow the in-flight pool
	// (the FirstMoverAttack opening).
	ActHoldProb
	// ActFireProb releases the first pending probabilistic write.
	ActFireProb
	// ActFireCheapestProb releases the pending probabilistic write this
	// adversary has released fewest times — the cheapest share of the Σpᵢ
	// budget.
	ActFireCheapestProb
	// ActFireRead schedules the first pending read (locks in a witness).
	ActFireRead
	// ActFireWrite schedules the first pending deterministic write.
	ActFireWrite
	// ActFireConflict schedules a pending write whose value conflicts with
	// the first written register's content (the disagreement-forcing move).
	ActFireConflict
)

// String names the action in the config grammar.
func (a Act) String() string {
	switch a {
	case ActLowest:
		return "lowest"
	case ActWeighted:
		return "weighted"
	case ActHoldProb:
		return "hold-prob"
	case ActFireProb:
		return "fire-prob"
	case ActFireCheapestProb:
		return "fire-cheapest-prob"
	case ActFireRead:
		return "fire-read"
	case ActFireWrite:
		return "fire-write"
	case ActFireConflict:
		return "fire-conflict"
	default:
		return fmt.Sprintf("act(%d)", int(a))
	}
}

// actPower returns the weakest class that may perform the action.
func actPower(a Act) Power {
	switch a {
	case ActLowest, ActWeighted:
		return Oblivious
	case ActFireConflict:
		return LocationOblivious
	default:
		return ValueOblivious
	}
}

// CondsFor returns the conditions an adversary of class p may evaluate, in
// declaration order — the condition pool the adversary search draws from
// when generating candidates within a power class.
func CondsFor(p Power) []Cond {
	var out []Cond
	for c := CondAlways; c <= CondConflict; c++ {
		if condPower(c) <= p {
			out = append(out, c)
		}
	}
	return out
}

// ActsFor returns the actions an adversary of class p may perform, in
// declaration order (the search's action pool; see CondsFor).
func ActsFor(p Power) []Act {
	var out []Act
	for a := ActLowest; a <= ActFireConflict; a++ {
		if actPower(a) <= p {
			out = append(out, a)
		}
	}
	return out
}

// ParamRule is one condition→action rule of a Parametric adversary.
type ParamRule struct {
	// When is the trigger condition.
	When Cond
	// K parameterizes the step conditions (CondStepGE, CondStepLT); it must
	// be zero for every other condition.
	K int
	// Do is the action taken when the condition holds.
	Do Act
}

// Validation caps. They bound configs to sizes the search can enumerate and
// the codec can round-trip without pathological blowup.
const (
	maxParamRules   = 16
	maxParamWeights = 64
	maxParamWeight  = 1 << 20
	maxParamStepK   = 1 << 30
	maxParamPhase   = 1 << 16
)

// ParamConfig is one point in the parametric adversary family. The zero
// value is not valid; build configs via ParseParametric or fill the fields
// and call NewParametric (which validates).
type ParamConfig struct {
	// Power is the declared adversary class; the runtime builds views at
	// exactly this power. It must be at least RequiredPower (a config may
	// declare a stronger class than its features need, which is how the
	// search fixes the class axis). Zero means "derive RequiredPower".
	Power Power
	// Base is the fallback policy when no rule fires.
	Base BasePolicy
	// Weights are per-pid priorities for BaseWeighted/ActWeighted; pid i has
	// weight Weights[i%len(Weights)]. Required when a weighted policy or
	// action is used; at least one weight must be positive.
	Weights []int
	// PhasePeriod, when nonzero, enables stall/burst phases: scheduling
	// decision d belongs to the burst when d%PhasePeriod < PhaseBurst, and
	// candidates are then restricted to pids below PhaseFocus (outside the
	// burst, to pids at or above it). An empty restriction falls back to all
	// runnable pids, so the adversary stays fair enough to be admissible.
	PhasePeriod int
	// PhaseBurst is the burst length, in [1, PhasePeriod-1].
	PhaseBurst int
	// PhaseFocus is the pid split point of the phase restriction.
	PhaseFocus int
	// Rules are consulted in order on every decision.
	Rules []ParamRule
}

// RequiredPower returns the weakest adversary class under which every
// feature of the config is implementable.
func (c *ParamConfig) RequiredPower() Power {
	p := Oblivious
	for _, r := range c.Rules {
		if q := condPower(r.When); q > p {
			p = q
		}
		if q := actPower(r.Do); q > p {
			p = q
		}
	}
	return p
}

// Validate checks the config against the family's caps and consistency
// rules; NewParametric and ParseParametric call it for you.
func (c *ParamConfig) Validate() error {
	if c.Power < Oblivious || c.Power > Adaptive {
		return fmt.Errorf("sched: parametric power %d out of range", int(c.Power))
	}
	if req := c.RequiredPower(); c.Power < req {
		return fmt.Errorf("sched: parametric config needs %s power but declares %s", req, c.Power)
	}
	if c.Base < BaseRoundRobin || c.Base > BaseWeighted {
		return fmt.Errorf("sched: parametric base policy %d out of range", int(c.Base))
	}
	if len(c.Weights) > maxParamWeights {
		return fmt.Errorf("sched: parametric weight vector has %d entries (max %d)", len(c.Weights), maxParamWeights)
	}
	positive := false
	for i, w := range c.Weights {
		if w < 0 || w > maxParamWeight {
			return fmt.Errorf("sched: parametric weight %d at index %d out of range [0, %d]", w, i, maxParamWeight)
		}
		if w > 0 {
			positive = true
		}
	}
	if len(c.Weights) > 0 && !positive {
		return fmt.Errorf("sched: parametric weight vector is all zero")
	}
	usesWeights := c.Base == BaseWeighted
	for _, r := range c.Rules {
		if r.Do == ActWeighted {
			usesWeights = true
		}
	}
	if usesWeights && len(c.Weights) == 0 {
		return fmt.Errorf("sched: weighted policy without a weight vector")
	}
	if c.PhasePeriod == 0 {
		if c.PhaseBurst != 0 || c.PhaseFocus != 0 {
			return fmt.Errorf("sched: parametric phase burst/focus set without a period")
		}
	} else {
		if c.PhasePeriod < 2 || c.PhasePeriod > maxParamPhase {
			return fmt.Errorf("sched: parametric phase period %d out of range [2, %d]", c.PhasePeriod, maxParamPhase)
		}
		if c.PhaseBurst < 1 || c.PhaseBurst >= c.PhasePeriod {
			return fmt.Errorf("sched: parametric phase burst %d out of range [1, period)", c.PhaseBurst)
		}
		if c.PhaseFocus < 1 || c.PhaseFocus > maxParamPhase {
			return fmt.Errorf("sched: parametric phase focus %d out of range [1, %d]", c.PhaseFocus, maxParamPhase)
		}
	}
	if len(c.Rules) > maxParamRules {
		return fmt.Errorf("sched: parametric config has %d rules (max %d)", len(c.Rules), maxParamRules)
	}
	for i, r := range c.Rules {
		if r.When < CondAlways || r.When > CondConflict {
			return fmt.Errorf("sched: rule %d condition %d out of range", i, int(r.When))
		}
		if r.Do < ActLowest || r.Do > ActFireConflict {
			return fmt.Errorf("sched: rule %d action %d out of range", i, int(r.Do))
		}
		stepCond := r.When == CondStepGE || r.When == CondStepLT
		if stepCond {
			if r.K < 0 || r.K > maxParamStepK {
				return fmt.Errorf("sched: rule %d step threshold %d out of range [0, %d]", i, r.K, maxParamStepK)
			}
		} else if r.K != 0 {
			return fmt.Errorf("sched: rule %d condition %s takes no threshold", i, r.When)
		}
	}
	return nil
}

// String renders the canonical config text. ParseParametric(c.String())
// reproduces c exactly for any valid config.
func (c *ParamConfig) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adv:power=%s,base=%s", c.Power, c.Base)
	if len(c.Weights) > 0 {
		b.WriteString(",w=")
		for i, w := range c.Weights {
			if i > 0 {
				b.WriteByte(':')
			}
			b.WriteString(strconv.Itoa(w))
		}
	}
	if c.PhasePeriod > 0 {
		fmt.Fprintf(&b, ",phase=%d/%d/%d", c.PhasePeriod, c.PhaseBurst, c.PhaseFocus)
	}
	for _, r := range c.Rules {
		b.WriteString(";rule:when=")
		b.WriteString(r.When.String())
		if r.When == CondStepGE || r.When == CondStepLT {
			fmt.Fprintf(&b, ":%d", r.K)
		}
		fmt.Fprintf(&b, ",do=%s", r.Do)
	}
	return b.String()
}

// ParseParametric parses a parametric adversary config from its text form.
// The grammar is documented at the top of this file; whitespace around
// specs, keys, and values is ignored. Omitting power derives the weakest
// class the features need; declaring a weaker class than required is an
// error.
func ParseParametric(s string) (ParamConfig, error) {
	var cfg ParamConfig
	if strings.TrimSpace(s) == "" {
		return cfg, fmt.Errorf("sched: empty parametric config")
	}
	segs, err := textspec.Split(s)
	if err != nil {
		return ParamConfig{}, fmt.Errorf("sched: %w", err)
	}
	for i, seg := range segs {
		switch seg.Kind {
		case "":
			return ParamConfig{}, fmt.Errorf("sched: empty spec in parametric config")
		case "adv":
			if i != 0 {
				return ParamConfig{}, fmt.Errorf("sched: adv spec must come first in parametric config")
			}
			if err := cfg.parseHead(seg.Params); err != nil {
				return ParamConfig{}, err
			}
		case "rule":
			if i == 0 {
				return ParamConfig{}, fmt.Errorf("sched: parametric config must start with an adv spec")
			}
			r, err := parseParamRule(seg.Params)
			if err != nil {
				return ParamConfig{}, err
			}
			cfg.Rules = append(cfg.Rules, r)
		default:
			return ParamConfig{}, fmt.Errorf("sched: unknown spec kind %q in parametric config", seg.Kind)
		}
	}
	if cfg.Power == 0 {
		cfg.Power = cfg.RequiredPower()
	}
	if err := cfg.Validate(); err != nil {
		return ParamConfig{}, err
	}
	return cfg, nil
}

// parseHead fills the adv-spec fields of the config.
func (c *ParamConfig) parseHead(params []textspec.Param) error {
	for _, kv := range params {
		key, val := kv.Key, kv.Val
		switch key {
		case "power":
			p, err := ParsePower(val)
			if err != nil {
				return err
			}
			c.Power = p
		case "base":
			b, ok := textspec.Lookup(val, BaseRoundRobin, BaseWeighted)
			if !ok {
				return fmt.Errorf("sched: unknown base policy %q", val)
			}
			c.Base = b
		case "w":
			for _, field := range strings.Split(val, ":") {
				w, err := strconv.Atoi(strings.TrimSpace(field))
				if err != nil {
					return fmt.Errorf("sched: bad weight %q: %v", field, err)
				}
				c.Weights = append(c.Weights, w)
			}
		case "phase":
			parts := strings.Split(val, "/")
			if len(parts) != 3 {
				return fmt.Errorf("sched: phase %q is not period/burst/focus", val)
			}
			var err error
			if c.PhasePeriod, err = strconv.Atoi(strings.TrimSpace(parts[0])); err != nil {
				return fmt.Errorf("sched: bad phase period %q: %v", parts[0], err)
			}
			if c.PhaseBurst, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
				return fmt.Errorf("sched: bad phase burst %q: %v", parts[1], err)
			}
			if c.PhaseFocus, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil {
				return fmt.Errorf("sched: bad phase focus %q: %v", parts[2], err)
			}
		default:
			return fmt.Errorf("sched: unknown adv parameter %q", key)
		}
	}
	if c.Base == 0 {
		return fmt.Errorf("sched: adv spec missing required parameter base")
	}
	return nil
}

// parseParamRule parses one rule spec's parameters.
func parseParamRule(params []textspec.Param) (ParamRule, error) {
	var r ParamRule
	for _, kv := range params {
		key, val := kv.Key, kv.Val
		switch key {
		case "when":
			name, karg, hasK := strings.Cut(val, ":")
			name = strings.TrimSpace(name)
			cond, ok := textspec.Lookup(name, CondAlways, CondConflict)
			if !ok {
				return ParamRule{}, fmt.Errorf("sched: unknown rule condition %q", name)
			}
			r.When = cond
			stepCond := cond == CondStepGE || cond == CondStepLT
			if stepCond != hasK {
				return ParamRule{}, fmt.Errorf("sched: condition %q %s a :K threshold", val, map[bool]string{true: "requires", false: "does not take"}[stepCond])
			}
			if hasK {
				k, err := strconv.Atoi(strings.TrimSpace(karg))
				if err != nil {
					return ParamRule{}, fmt.Errorf("sched: bad step threshold %q: %v", karg, err)
				}
				r.K = k
			}
		case "do":
			act, ok := textspec.Lookup(val, ActLowest, ActFireConflict)
			if !ok {
				return ParamRule{}, fmt.Errorf("sched: unknown rule action %q", val)
			}
			r.Do = act
		default:
			return ParamRule{}, fmt.Errorf("sched: unknown rule parameter %q", key)
		}
	}
	if r.When == 0 || r.Do == 0 {
		return ParamRule{}, fmt.Errorf("sched: rule spec requires both when and do")
	}
	return r, nil
}

// ParsePower parses a power-class name as spelled by Power.String
// ("oblivious", "value-oblivious", "location-oblivious", "adaptive") — the
// form CLI flags and config texts use.
func ParsePower(s string) (Power, error) {
	p, ok := textspec.Lookup(s, Oblivious, Adaptive)
	if !ok {
		return 0, fmt.Errorf("sched: unknown power class %q", s)
	}
	return p, nil
}

// Parametric is the configurable adversary defined by a ParamConfig. It is
// stateful like every strategy here (per-pid schedule counts, release
// counts, a phase clock) and resets all of it in Seed, so a pooled engine
// can reuse one instance across trials.
type Parametric struct {
	cfg ParamConfig
	src *xrand.Source

	chosen    int    // scheduling decisions made this execution (phase clock)
	rr        cursor // round-robin cursor
	stepCount []int  // per-pid times scheduled
	attempts  []int  // per-pid probabilistic-write releases (fire-cheapest-prob)
}

// NewParametric validates the config and builds the adversary. A zero Power
// is normalized to the config's RequiredPower. The config is copied, so the
// caller may reuse or mutate its slices afterwards.
func NewParametric(cfg ParamConfig) (*Parametric, error) {
	if cfg.Power == 0 {
		cfg.Power = cfg.RequiredPower()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Weights = append([]int(nil), cfg.Weights...)
	cfg.Rules = append([]ParamRule(nil), cfg.Rules...)
	return &Parametric{cfg: cfg}, nil
}

// NewParametricFromString parses a config text and builds the adversary.
func NewParametricFromString(config string) (*Parametric, error) {
	cfg, err := ParseParametric(config)
	if err != nil {
		return nil, err
	}
	return NewParametric(cfg)
}

// Config returns a copy of the adversary's validated configuration.
func (p *Parametric) Config() ParamConfig {
	cfg := p.cfg
	cfg.Weights = append([]int(nil), cfg.Weights...)
	cfg.Rules = append([]ParamRule(nil), cfg.Rules...)
	return cfg
}

// Seed implements Scheduler.
func (p *Parametric) Seed(src *xrand.Source) {
	p.src = src
	p.chosen = 0
	p.rr = cursor{}
	clear(p.stepCount)
	clear(p.attempts)
}

// Name implements Scheduler. The name embeds the canonical config text, so
// any report that prints scheduler names identifies the exact adversary.
func (p *Parametric) Name() string { return "parametric:" + p.cfg.String() }

// MinPower implements Scheduler: the declared class of the config.
func (p *Parametric) MinPower() Power { return p.cfg.Power }

// Next implements Scheduler.
func (p *Parametric) Next(v *View) int {
	if len(p.stepCount) < v.N {
		p.stepCount = make([]int, v.N)
		p.attempts = make([]int, v.N)
	}
	run := p.candidates(v)
	pid := -1
	for i := range p.cfg.Rules {
		r := &p.cfg.Rules[i]
		if !p.condHolds(r.When, r.K, v) {
			continue
		}
		if q := p.act(r.Do, v, run); q >= 0 {
			pid = q
			break
		}
	}
	if pid < 0 {
		pid = p.base(run)
	}
	p.chosen++
	p.stepCount[pid]++
	return pid
}

// candidates returns the phase-restricted candidate set: the runnable pids
// below PhaseFocus during a burst and those at or above it otherwise, or
// all of v.Runnable when that set is empty. Runnable is ascending, so
// either side of the split is a contiguous run of it, found by one binary
// search, and every runnable pid between the run's first and last is in
// the run: the actions read the view's index between those two pids.
func (p *Parametric) candidates(v *View) []int {
	if p.cfg.PhasePeriod == 0 {
		return v.Runnable
	}
	i, _ := slices.BinarySearch(v.Runnable, p.cfg.PhaseFocus)
	run := v.Runnable[i:]
	if p.chosen%p.cfg.PhasePeriod < p.cfg.PhaseBurst {
		run = v.Runnable[:i]
	}
	if len(run) == 0 {
		return v.Runnable
	}
	return run
}

// condHolds evaluates a rule condition against the view.
func (p *Parametric) condHolds(c Cond, k int, v *View) bool {
	switch c {
	case CondAlways:
		return true
	case CondStepGE:
		return v.Step >= k
	case CondStepLT:
		return v.Step < k
	case CondProbPending:
		return v.CountPending(OpProbWrite) > 0
	case CondAllProb:
		return len(v.Runnable) > 0 && v.CountPending(OpProbWrite) == len(v.Runnable)
	case CondInFlight:
		for _, pid := range v.Runnable {
			if v.Pending[pid].InFlight {
				return true
			}
		}
		return false
	case CondMemWritten:
		_, written := firstWrittenValue(v.Memory)
		return written
	case CondConflict:
		return p.conflictPid(v, v.Runnable) >= 0
	default:
		return false
	}
}

// act performs a rule action over the candidate run; -1 when no candidate
// matches. The kind actions read the view's index from the run's first pid
// and keep what they find up to its last.
func (p *Parametric) act(a Act, v *View, run []int) int {
	first, last := run[0], run[len(run)-1]
	switch a {
	case ActLowest:
		return first
	case ActWeighted:
		return p.weightiest(run)
	case ActHoldProb:
		return atMost(firstNotProbWrite(v, first), last)
	case ActFireProb:
		return atMost(v.NextPending(OpProbWrite, first), last)
	case ActFireCheapestProb:
		best := -1
		for pid := v.NextPending(OpProbWrite, first); pid >= 0 && pid <= last; pid = v.NextPending(OpProbWrite, pid+1) {
			if best == -1 || p.attempts[pid] < p.attempts[best] {
				best = pid
			}
		}
		if best >= 0 {
			p.attempts[best]++
		}
		return best
	case ActFireRead:
		return atMost(v.NextPending(OpRead, first), last)
	case ActFireWrite:
		return atMost(v.NextPending(OpWrite, first), last)
	case ActFireConflict:
		return p.conflictPid(v, run)
	default:
		return -1
	}
}

// atMost returns pid, or -1 when pid is past last.
func atMost(pid, last int) int {
	if pid > last {
		return -1
	}
	return pid
}

// conflictPid returns the first pid in set whose pending write value
// conflicts with the first written register's content; -1 if none.
func (p *Parametric) conflictPid(v *View, set []int) int {
	cur, ok := firstWrittenValue(v.Memory)
	if !ok {
		return -1
	}
	for _, pid := range set {
		op := v.Pending[pid]
		if op.Kind != OpWrite && op.Kind != OpProbWrite {
			continue
		}
		if !op.Val.IsNone() && op.Val != cur {
			return pid
		}
	}
	return -1
}

// base applies the fallback policy over the candidate run.
func (p *Parametric) base(run []int) int {
	switch p.cfg.Base {
	case BaseRoundRobin:
		return p.rr.pickIn(run)
	case BaseLockstep:
		best := run[0]
		for _, pid := range run[1:] {
			if p.stepCount[pid] < p.stepCount[best] {
				best = pid
			}
		}
		return best
	case BaseFrontrun:
		best := run[0]
		for _, pid := range run[1:] {
			if p.stepCount[pid] > p.stepCount[best] {
				best = pid
			}
		}
		return best
	case BaseRandom:
		return run[p.src.Intn(len(run))]
	case BaseWeighted:
		return p.weightiest(run)
	default:
		return run[0]
	}
}

// weightiest returns the largest-weight pid of the set (ties to the lowest
// pid, which comes first in the ascending candidate order).
func (p *Parametric) weightiest(set []int) int {
	best := set[0]
	for _, pid := range set[1:] {
		if p.weight(pid) > p.weight(best) {
			best = pid
		}
	}
	return best
}

// weight returns pid's priority weight (zero without a weight vector).
func (p *Parametric) weight(pid int) int {
	if len(p.cfg.Weights) == 0 {
		return 0
	}
	return p.cfg.Weights[pid%len(p.cfg.Weights)]
}
