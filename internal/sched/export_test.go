package sched

import (
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// Hooks for the external differential tests (view_diff_test.go), which run
// the attacks' phase tracker over real simulator executions; package sim
// imports sched, so those tests live in package sched_test.

// SetOp makes op pid's entry of Pending the way a runtime writes one:
// through SetPending, then in place.
func (v *View) SetOp(pid int, op Op) { *v.SetPending(pid, op.Valid, op.Kind) = op }

// ConcTracker is the attacks' phase tracker.
type ConcTracker = concTracker

// Observe runs the tracker on one view.
func (c *concTracker) Observe(v *View) (phase int, cur value.Value) { return c.observe(v) }

// Reset clears the tracker for a fresh execution.
func (c *concTracker) Reset() { c.reset() }

// The tracker's phases.
const (
	PhaseNeutral = phaseNeutral
	PhasePool    = phasePool
	PhaseEndgame = phaseEndgame
)

// CopyScanTracker is the tracker as it was when View.Memory was a fresh copy
// of the register file every step: it copies memory at arming and rescans
// the whole copy on every later step. Its observe is kept verbatim as the
// reference the sparse tracker must match on every view.
type CopyScanTracker struct {
	armed    bool
	baseline []value.Value
}

// Observe runs the reference tracker on one view.
func (c *CopyScanTracker) Observe(v *View) (phase int, cur value.Value) { return c.observe(v) }

// Reset clears the reference tracker for a fresh execution.
func (c *CopyScanTracker) Reset() {
	c.armed = false
	c.baseline = c.baseline[:0]
}

func (c *CopyScanTracker) observe(v *View) (phase int, cur value.Value) {
	anyProb := false
	for _, pid := range v.Runnable {
		if v.Pending[pid].Kind == OpProbWrite {
			anyProb = true
			break
		}
	}
	if !c.armed {
		if !anyProb {
			return phaseNeutral, value.None
		}
		c.armed = true
		c.baseline = append(c.baseline[:0], v.Memory...)
	}
	// Armed: look for the first cell that changed since arming; a cell past
	// the baseline has changed once it holds a value. This scan is most of
	// an attack's cost per step, so it is two tight loops over hoisted
	// slices: one loop that reloads the baseline per cell runs up to a
	// quarter slower when its code straddles one more 64-byte boundary,
	// which edits to unrelated packages can cause.
	mem, base := v.Memory, c.baseline
	if len(base) > len(mem) {
		base = base[:len(mem)]
	}
	for i, b := range base {
		if m := mem[i]; m != b && !m.IsNone() {
			return phaseEndgame, m
		}
	}
	for _, m := range mem[len(base):] {
		if !m.IsNone() {
			return phaseEndgame, m
		}
	}
	if !anyProb {
		// The round fizzled (every attempt missed and processes moved on,
		// or the protocol left the conciliator); re-arm for the next one.
		c.armed = false
		return phaseNeutral, value.None
	}
	return phasePool, value.None
}

// The scans the view's index of pending operations by kind and the cursor
// replaced, kept verbatim as the references the schedulers must match pick
// for pick (view_diff_test.go): Laggard and Frontrunner with their step
// counters, the attacks' Next with the copy-and-scan tracker above, the
// endgame's fireWrite and pendingOfKind scanning Runnable, and Parametric's
// candidate filter, round robin and kind actions.

// ScanLaggard is Laggard as it was before it became a cursor.
type ScanLaggard struct {
	steps []int
}

// Next implements Scheduler.
func (s *ScanLaggard) Next(v *View) int {
	if s.steps == nil {
		s.steps = make([]int, v.N)
	}
	best := -1
	for _, pid := range v.Runnable {
		if best == -1 || s.steps[pid] < s.steps[best] {
			best = pid
		}
	}
	s.steps[best]++
	return best
}

// Seed implements Scheduler.
func (s *ScanLaggard) Seed(*xrand.Source) {
	for i := range s.steps {
		s.steps[i] = 0
	}
}

// Name implements Scheduler.
func (s *ScanLaggard) Name() string { return "scan/laggard-lockstep" }

// MinPower implements Scheduler.
func (s *ScanLaggard) MinPower() Power { return Oblivious }

// scanEndgame is firstMoverEndgame as it was before the index.
type scanEndgame struct {
	locked    bool
	lockedVal value.Value
	attempts  []int
}

func (g *scanEndgame) reset() {
	g.locked = false
	g.lockedVal = value.None
	for i := range g.attempts {
		g.attempts[i] = 0
	}
}

func (g *scanEndgame) play(v *View, cur value.Value) int {
	if !g.locked {
		if pid := scanPendingOfKind(v, OpRead); pid >= 0 {
			g.locked = true
			g.lockedVal = cur
			return pid
		}
		// No reader to lock yet; keep the write pressure up.
		if pid := g.fireWrite(v, value.None); pid >= 0 {
			return pid
		}
		return v.Runnable[0]
	}
	if cur != g.lockedVal {
		// Disagreement is on the table: bank it with readers first.
		if pid := scanPendingOfKind(v, OpRead); pid >= 0 {
			return pid
		}
		if pid := g.fireWrite(v, value.None); pid >= 0 {
			return pid
		}
		return v.Runnable[0]
	}
	// Memory still shows the witness value: try to flip it.
	if pid := g.fireWrite(v, cur); pid >= 0 {
		return pid
	}
	if pid := scanPendingOfKind(v, OpRead); pid >= 0 {
		return pid
	}
	return v.Runnable[0]
}

func (g *scanEndgame) fireWrite(v *View, avoid value.Value) int {
	if g.attempts == nil {
		g.attempts = make([]int, v.N)
	}
	best := -1
	for _, pid := range v.Runnable {
		op := v.Pending[pid]
		if op.Kind != OpProbWrite {
			continue
		}
		if !avoid.IsNone() && op.Val == avoid {
			continue
		}
		if best == -1 || g.attempts[pid] < g.attempts[best] {
			best = pid
		}
	}
	if best >= 0 {
		g.attempts[best]++
	}
	return best
}

func scanPendingOfKind(v *View, kind OpKind) int {
	for _, pid := range v.Runnable {
		if v.Pending[pid].Kind == kind {
			return pid
		}
	}
	return -1
}

// ScanFirstMoverAttack is FirstMoverAttack as it was before the index.
type ScanFirstMoverAttack struct {
	tracker  CopyScanTracker
	endgame  scanEndgame
	attempts []int
	next     int
}

// Next implements Scheduler.
func (s *ScanFirstMoverAttack) Next(v *View) int {
	phase, cur := s.tracker.observe(v)
	switch phase {
	case phaseEndgame:
		return s.endgame.play(v, cur)
	case phaseNeutral:
		// Outside conciliator rounds (e.g. inside ratifiers): neutral
		// round-robin, and reset the endgame for the next round.
		s.endgame = scanEndgame{}
		return s.roundRobin(v)
	}
	// Pool building: advance processes that are *not* yet poised to write,
	// so the pending-write pool grows.
	for _, pid := range v.Runnable {
		if v.Pending[pid].Kind != OpProbWrite {
			return pid
		}
	}
	// All runnable processes have a pending probabilistic write: release
	// the cheapest attempt.
	if s.attempts == nil {
		s.attempts = make([]int, v.N)
	}
	best := -1
	for _, pid := range v.Runnable {
		if best == -1 || s.attempts[pid] < s.attempts[best] {
			best = pid
		}
	}
	s.attempts[best]++
	return best
}

func (s *ScanFirstMoverAttack) roundRobin(v *View) int {
	for i := 0; i < v.N; i++ {
		pid := (s.next + i) % v.N
		if v.Pending[pid].Valid {
			s.next = (pid + 1) % v.N
			return pid
		}
	}
	return v.Runnable[0]
}

// Seed implements Scheduler.
func (s *ScanFirstMoverAttack) Seed(*xrand.Source) {
	s.tracker.Reset()
	s.endgame.reset()
	for i := range s.attempts {
		s.attempts[i] = 0
	}
	s.next = 0
}

// Name implements Scheduler.
func (s *ScanFirstMoverAttack) Name() string { return "scan/first-mover-attack" }

// MinPower implements Scheduler.
func (s *ScanFirstMoverAttack) MinPower() Power { return LocationOblivious }

// ScanEagerWriteAttack is EagerWriteAttack as it was before the index.
type ScanEagerWriteAttack struct {
	tracker CopyScanTracker
	endgame scanEndgame
	next    int
}

// Next implements Scheduler.
func (s *ScanEagerWriteAttack) Next(v *View) int {
	phase, cur := s.tracker.observe(v)
	if phase == phaseEndgame {
		return s.endgame.play(v, cur)
	}
	if phase == phaseNeutral {
		s.endgame = scanEndgame{}
	}
	// Opening and pool phase: plain round-robin — writes fire as soon as
	// their turn comes, keeping every process one step from a fresh attempt
	// when the first success lands.
	for i := 0; i < v.N; i++ {
		pid := (s.next + i) % v.N
		if v.Pending[pid].Valid {
			s.next = (pid + 1) % v.N
			return pid
		}
	}
	return v.Runnable[0]
}

// Seed implements Scheduler.
func (s *ScanEagerWriteAttack) Seed(*xrand.Source) {
	s.tracker.Reset()
	s.endgame.reset()
	s.next = 0
}

// Name implements Scheduler.
func (s *ScanEagerWriteAttack) Name() string { return "scan/eager-write-attack" }

// MinPower implements Scheduler.
func (s *ScanEagerWriteAttack) MinPower() Power { return LocationOblivious }

// ScanFrontrunner is Frontrunner as it was before it became stateless.
type ScanFrontrunner struct {
	steps []int
}

// Next implements Scheduler.
func (s *ScanFrontrunner) Next(v *View) int {
	if s.steps == nil {
		s.steps = make([]int, v.N)
	}
	best := -1
	for _, pid := range v.Runnable {
		if best == -1 || s.steps[pid] > s.steps[best] {
			best = pid
		}
	}
	s.steps[best]++
	return best
}

// Seed implements Scheduler.
func (s *ScanFrontrunner) Seed(*xrand.Source) {
	for i := range s.steps {
		s.steps[i] = 0
	}
}

// Name implements Scheduler.
func (s *ScanFrontrunner) Name() string { return "scan/frontrunner" }

// MinPower implements Scheduler.
func (s *ScanFrontrunner) MinPower() Power { return Oblivious }

// ScanParametric is Parametric with the pieces it had before its candidates
// became a run of Runnable, kept verbatim: the candidate filter into a
// scratch buffer, the member-mark round robin, and the kind actions'
// per-candidate loops. Everything else is Parametric's own.
type ScanParametric struct {
	Parametric
	next   int
	cand   []int
	member []bool
}

// NewScanParametric builds the reference for a valid cfg.
func NewScanParametric(cfg ParamConfig) *ScanParametric {
	p, err := NewParametric(cfg)
	if err != nil {
		panic(err)
	}
	return &ScanParametric{Parametric: *p}
}

// Seed implements Scheduler.
func (p *ScanParametric) Seed(src *xrand.Source) {
	p.Parametric.Seed(src)
	p.next = 0
}

// Name implements Scheduler.
func (p *ScanParametric) Name() string { return "scan/" + p.Parametric.Name() }

// Next implements Scheduler.
func (p *ScanParametric) Next(v *View) int {
	if len(p.stepCount) < v.N {
		p.stepCount = make([]int, v.N)
		p.attempts = make([]int, v.N)
		p.member = make([]bool, v.N)
	}
	cand := p.candidates(v)
	pid := -1
	for i := range p.cfg.Rules {
		r := &p.cfg.Rules[i]
		if !p.condHolds(r.When, r.K, v) {
			continue
		}
		if q := p.act(r.Do, v, cand); q >= 0 {
			pid = q
			break
		}
	}
	if pid < 0 {
		pid = p.base(v, cand)
	}
	p.chosen++
	p.stepCount[pid]++
	return pid
}

func (p *ScanParametric) candidates(v *View) []int {
	if p.cfg.PhasePeriod == 0 {
		return v.Runnable
	}
	focusLow := p.chosen%p.cfg.PhasePeriod < p.cfg.PhaseBurst
	p.cand = p.cand[:0]
	for _, pid := range v.Runnable {
		if (pid < p.cfg.PhaseFocus) == focusLow {
			p.cand = append(p.cand, pid)
		}
	}
	if len(p.cand) == 0 {
		return v.Runnable
	}
	return p.cand
}

func (p *ScanParametric) act(a Act, v *View, cand []int) int {
	switch a {
	case ActHoldProb:
		for _, pid := range cand {
			op := v.Pending[pid]
			if op.Valid && op.Kind != OpProbWrite {
				return pid
			}
		}
		return -1
	case ActFireProb:
		for _, pid := range cand {
			if v.Pending[pid].Kind == OpProbWrite {
				return pid
			}
		}
		return -1
	case ActFireCheapestProb:
		best := -1
		for _, pid := range cand {
			if v.Pending[pid].Kind != OpProbWrite {
				continue
			}
			if best == -1 || p.attempts[pid] < p.attempts[best] {
				best = pid
			}
		}
		if best >= 0 {
			p.attempts[best]++
		}
		return best
	case ActFireRead:
		for _, pid := range cand {
			if v.Pending[pid].Kind == OpRead {
				return pid
			}
		}
		return -1
	case ActFireWrite:
		for _, pid := range cand {
			if v.Pending[pid].Kind == OpWrite {
				return pid
			}
		}
		return -1
	default:
		return p.Parametric.act(a, v, cand)
	}
}

func (p *ScanParametric) base(v *View, cand []int) int {
	if p.cfg.Base != BaseRoundRobin {
		return p.Parametric.base(cand)
	}
	for _, pid := range cand {
		p.member[pid] = true
	}
	pick := cand[0]
	for i := 0; i < v.N; i++ {
		pid := (p.next + i) % v.N
		if pid < len(p.member) && p.member[pid] {
			pick = pid
			break
		}
	}
	for _, pid := range cand {
		p.member[pid] = false
	}
	p.next = (pick + 1) % v.N
	return pick
}
