package sched

import (
	"cmp"
	"slices"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// concTracker detects first-mover conciliator phases from what a
// location-oblivious adversary may observe. A conciliator round is
// recognizable by pending *probabilistic* writes; when the first one
// appears, the tracker arms, and the first register that subsequently
// changes is the conciliator's register — whatever its address, which this
// adversary class cannot see.
//
// Its baseline is sparse: the registers View.Changed has reported since
// arming, ascending, each with the value it held at arming. Every other cell
// still holds its arming value, so the first listed register that differs is
// the first changed cell a full copy of memory would show, found without
// copying or scanning the file.
type concTracker struct {
	armed bool
	// armLen is len(View.Memory) at arming.
	armLen  int
	changed []armedCell
}

// armedCell is one register changed since arming, with its value at arming.
type armedCell struct {
	reg register.Reg
	old value.Value
}

// trackedCells presizes the sparse baseline. An attacked binary consensus
// execution changes at most 7 distinct registers between arming and its end
// (300 seeds each at n = 8, 32 and 128); more only costs an append.
const trackedCells = 16

// observe returns the conciliator phase: phaseNeutral when no probabilistic
// writes are pending and nothing has landed, phasePool while attempts are
// pending but none has taken effect, phaseEndgame (with the winning value)
// once one has.
func (c *concTracker) observe(v *View) (phase int, cur value.Value) {
	anyProb := v.CountPending(OpProbWrite) > 0
	mem := v.Memory
	if !c.armed {
		if !anyProb {
			return phaseNeutral, value.None
		}
		// Memory already shows the change v.Changed reports, so the
		// baseline starts empty.
		c.armed = true
		c.armLen = len(mem)
		c.changed = c.changed[:0]
	} else if ch := v.Changed; ch.Valid && int(ch.Reg) < c.armLen {
		c.note(ch)
	}
	for _, e := range c.changed {
		if m := mem[e.reg]; m != e.old && !m.IsNone() {
			return phaseEndgame, m
		}
	}
	// A cell past the file's length at arming has changed once it holds a
	// value: a stage built mid-run Inits its registers with no write to
	// report.
	for _, m := range mem[c.armLen:] {
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

// note adds ch's register to the baseline, with its old value, unless an
// earlier change already put it there with its value at arming.
func (c *concTracker) note(ch Change) {
	i, found := slices.BinarySearchFunc(c.changed, ch.Reg, func(e armedCell, r register.Reg) int {
		return cmp.Compare(e.reg, r)
	})
	if found {
		return
	}
	if c.changed == nil {
		c.changed = make([]armedCell, 0, trackedCells)
	}
	c.changed = slices.Insert(c.changed, i, armedCell{reg: ch.Reg, old: ch.Old})
}

// reset clears the tracker for a fresh execution, keeping the baseline
// buffer's capacity.
func (c *concTracker) reset() {
	c.armed = false
	c.changed = c.changed[:0]
}

const (
	phaseNeutral = iota + 1
	phasePool
	phaseEndgame
)

// firstMoverEndgame is the disagreement-forcing endgame shared by the
// attack strategies, played once a conciliator write has landed. The
// adversary (location-oblivious: it sees memory contents and pending write
// values, and remembers its own history) plays to split the return values:
//
//  1. Lock a witness: schedule one pending read, so some process returns
//     the current value A and can never change its mind.
//  2. While memory still holds A, fire pending probabilistic writes whose
//     value differs from A — each is a chance to flip the register.
//  3. The moment memory differs from the witness value, schedule pending
//     reads first (each locks in the disagreement), then release whatever
//     remains.
//
// This is exactly the adversary structure behind the Theorem 7 bound: the
// protocol survives only if no conflicting write lands after the first
// success.
type firstMoverEndgame struct {
	// played reports that play ran since the last reset.
	played    bool
	locked    bool
	lockedVal value.Value
	attempts  []int
}

// reset clears the endgame for the next conciliator round or a fresh
// execution, keeping the attempts array. It does nothing unless play ran
// since the last reset, so calling it on every step outside the endgame
// costs O(1), and O(n) once per endgame.
func (g *firstMoverEndgame) reset() {
	if !g.played {
		return
	}
	g.played = false
	g.locked = false
	g.lockedVal = value.None
	clear(g.attempts)
}

// play chooses the next pid given the current conciliator-register value.
func (g *firstMoverEndgame) play(v *View, cur value.Value) int {
	g.played = true
	if !g.locked {
		if pid := v.NextPending(OpRead, 0); pid >= 0 {
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
		if pid := v.NextPending(OpRead, 0); pid >= 0 {
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
	if pid := v.NextPending(OpRead, 0); pid >= 0 {
		return pid
	}
	return v.Runnable[0]
}

// fireWrite schedules the fewest-attempts pending probabilistic write whose
// value differs from avoid (value.None matches everything), the lowest pid
// on ties; -1 if none. It walks only the pending probabilistic writes.
func (g *firstMoverEndgame) fireWrite(v *View, avoid value.Value) int {
	if g.attempts == nil {
		g.attempts = make([]int, v.N)
	}
	best := -1
	for pid := v.NextPending(OpProbWrite, 0); pid >= 0; pid = v.NextPending(OpProbWrite, pid+1) {
		if !avoid.IsNone() && v.Pending[pid].Val == avoid {
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

// firstWrittenValue returns the value of the lowest-indexed non-⊥ register.
// The first-mover conciliator exposes a single register, so this is "the"
// register's content during the attack window.
func firstWrittenValue(memory []value.Value) (value.Value, bool) {
	for _, m := range memory {
		if !m.IsNone() {
			return m, true
		}
	}
	return value.None, false
}

// firstNotProbWrite returns the lowest pid at or above from whose pending
// operation is not a probabilistic write, or -1.
func firstNotProbWrite(v *View, from int) int {
	first := -1
	for _, k := range [...]OpKind{OpRead, OpWrite, OpCollect} {
		if pid := v.NextPending(k, from); pid >= 0 && (first < 0 || pid < first) {
			first = pid
		}
	}
	return first
}

// FirstMoverAttack is a location-oblivious strategy tuned against
// first-mover conciliators (Chor–Israeli–Li-style protocols and the paper's
// ImpatientFirstMoverConciliator, §5.2). It reconstructs the adversary used
// in the proof of Theorem 7:
//
//   - Opening (no register written): hold back probabilistic writes until
//     *every* runnable process has one pending, so the pool of in-flight
//     attempts is as large as possible; then release attempts
//     cheapest-first (fewest prior attempts, i.e. smallest current write
//     probability, the lowest pid on ties), spending as little of the Σpᵢ
//     budget as possible before a success lands. Only releases add
//     attempts, one to the released pid, and the runnable set only shrinks,
//     so the cheapest release is the next runnable pid after the last one
//     released, in cyclic order (the argument on Laggard): a cursor's pick.
//   - Endgame (after the first success): lock in a witness reader, then
//     fire the conflicting pending writes (see firstMoverEndgame).
//
// Everything it consults is legal for a location-oblivious adversary:
// pending operation *types and values*, register *contents*, and its own
// memory of how many attempts each process has made.
type FirstMoverAttack struct {
	tracker concTracker
	endgame firstMoverEndgame
	// rr follows the last neutral pick; release the last pool release.
	rr, release cursor
}

// NewFirstMoverAttack returns the attack scheduler.
func NewFirstMoverAttack() *FirstMoverAttack { return &FirstMoverAttack{} }

// Next implements Scheduler.
func (s *FirstMoverAttack) Next(v *View) int {
	phase, cur := s.tracker.observe(v)
	switch phase {
	case phaseEndgame:
		return s.endgame.play(v, cur)
	case phaseNeutral:
		// Outside conciliator rounds (e.g. inside ratifiers): neutral
		// round-robin, and reset the endgame for the next round.
		s.endgame.reset()
		return s.rr.pick(v)
	}
	// Pool building: advance processes that are *not* yet poised to write,
	// so the pending-write pool grows.
	if pid := firstNotProbWrite(v, 0); pid >= 0 {
		return pid
	}
	// All runnable processes have a pending probabilistic write: release
	// the cheapest attempt.
	return s.release.pick(v)
}

// Seed implements Scheduler (deterministic strategy; resets the attack
// state accumulated over the previous execution).
func (s *FirstMoverAttack) Seed(*xrand.Source) {
	s.tracker.reset()
	s.endgame.reset()
	s.rr, s.release = cursor{}, cursor{}
}

// Name implements Scheduler.
func (s *FirstMoverAttack) Name() string { return "first-mover-attack" }

// MinPower implements Scheduler.
func (s *FirstMoverAttack) MinPower() Power { return LocationOblivious }

// EagerWriteAttack is a simpler location-oblivious attack: it releases
// pending probabilistic writes as soon as they appear (spending the Σpᵢ
// budget faster, which keeps more processes mid-loop when the first success
// lands), then plays the same witness-and-flip endgame.
type EagerWriteAttack struct {
	tracker concTracker
	endgame firstMoverEndgame
	rr      cursor
}

// NewEagerWriteAttack returns the attack scheduler.
func NewEagerWriteAttack() *EagerWriteAttack { return &EagerWriteAttack{} }

// Next implements Scheduler.
func (s *EagerWriteAttack) Next(v *View) int {
	phase, cur := s.tracker.observe(v)
	if phase == phaseEndgame {
		return s.endgame.play(v, cur)
	}
	if phase == phaseNeutral {
		s.endgame.reset()
	}
	// Opening and pool phase: plain round-robin — writes fire as soon as
	// their turn comes, keeping every process one step from a fresh attempt
	// when the first success lands.
	return s.rr.pick(v)
}

// Seed implements Scheduler (deterministic strategy; resets the attack
// state accumulated over the previous execution).
func (s *EagerWriteAttack) Seed(*xrand.Source) {
	s.tracker.reset()
	s.endgame.reset()
	s.rr = cursor{}
}

// Name implements Scheduler.
func (s *EagerWriteAttack) Name() string { return "eager-write-attack" }

// MinPower implements Scheduler.
func (s *EagerWriteAttack) MinPower() Power { return LocationOblivious }

// StaleReadAttack is a value-oblivious strategy that exploits *regular*
// register semantics (Hadzilacos–Hu–Toueg): whenever a read and a write are
// simultaneously pending on the same register, it fires the write first and
// then releases the read, so the read overlaps the write and may resolve to
// the stale pre-write value. Against atomic registers the same schedule is
// harmless — the read simply returns the new value — which is exactly the
// separation the regular-register tests and E21 measure. Everything it
// consults (pending operation kinds and locations, its own memory of which
// registers it poisoned) is legal for a value-oblivious adversary.
type StaleReadAttack struct {
	// stale marks registers written over while a read was pending on them:
	// any still-pending read on such a register carries a stale invocation
	// snapshot worth cashing in.
	stale map[register.Reg]bool
	rr    cursor
}

// NewStaleReadAttack returns the attack scheduler.
func NewStaleReadAttack() *StaleReadAttack { return &StaleReadAttack{} }

// Next implements Scheduler.
func (s *StaleReadAttack) Next(v *View) int {
	if s.stale == nil {
		s.stale = make(map[register.Reg]bool)
	}
	// A pending read on a register we already poisoned: release it now,
	// while its snapshot is still stale.
	for _, pid := range v.Runnable {
		op := v.Pending[pid]
		if op.Kind == OpRead && op.Reg >= 0 && s.stale[op.Reg] {
			delete(s.stale, op.Reg)
			return pid
		}
	}
	// A write poised over a register some other process is mid-read on:
	// land it, creating the overlap a regular register lets us exploit.
	for _, pid := range v.Runnable {
		op := v.Pending[pid]
		if (op.Kind != OpWrite && op.Kind != OpProbWrite) || op.Reg < 0 {
			continue
		}
		for _, rd := range v.Runnable {
			if rd == pid {
				continue
			}
			rop := v.Pending[rd]
			if rop.Kind == OpRead && rop.Reg == op.Reg {
				s.stale[op.Reg] = true
				return pid
			}
		}
	}
	// No overlap to engineer: neutral round-robin keeps the run moving.
	return s.rr.pick(v)
}

// Seed implements Scheduler (deterministic strategy; resets the poisoned-
// register memory accumulated over the previous execution).
func (s *StaleReadAttack) Seed(*xrand.Source) {
	clear(s.stale)
	s.rr = cursor{}
}

// Name implements Scheduler.
func (s *StaleReadAttack) Name() string { return "stale-read-attack" }

// MinPower implements Scheduler.
func (s *StaleReadAttack) MinPower() Power { return ValueOblivious }

// SplitVote is a value-oblivious strategy that tries to defeat agreement
// detection by running the processes in two isolated waves: first every even
// pid to completion of as many steps as possible, then the odds. Against a
// correct ratifier it can at worst slow things down (coherence is
// deterministic); it exists to stress-test coherence under maximally skewed
// interleavings.
type SplitVote struct{}

// NewSplitVote returns the scheduler.
func NewSplitVote() *SplitVote { return &SplitVote{} }

// Next implements Scheduler.
func (s *SplitVote) Next(v *View) int {
	for _, pid := range v.Runnable {
		if pid%2 == 0 {
			return pid
		}
	}
	return v.Runnable[0]
}

// Seed implements Scheduler (deterministic strategy).
func (s *SplitVote) Seed(*xrand.Source) {}

// Name implements Scheduler.
func (s *SplitVote) Name() string { return "split-vote" }

// MinPower implements Scheduler.
func (s *SplitVote) MinPower() Power { return ValueOblivious }

// AdaptiveSpoiler is a strong-adversary strategy used to demonstrate *why*
// the paper's conciliators need the probabilistic-write assumption: once a
// register holds a value it alternates between committing a victim (letting
// one pending read observe the current value) and firing a pending write
// that conflicts with it. Against deterministic first-mover protocols every
// victim observes a different value and agreement probability collapses;
// against probabilistic writes the "conflicting write" step is just a coin
// the adversary cannot load, and the Theorem 7 bound survives.
type AdaptiveSpoiler struct {
	wantWrite bool
}

// NewAdaptiveSpoiler returns the scheduler.
func NewAdaptiveSpoiler() *AdaptiveSpoiler { return &AdaptiveSpoiler{} }

// Next implements Scheduler.
func (s *AdaptiveSpoiler) Next(v *View) int {
	cur, written := firstWrittenValue(v.Memory)
	if !written {
		// Arm the attack: advance readers so writes queue up, then let the
		// first write land.
		if pid := v.NextPending(OpRead, 0); pid >= 0 {
			return pid
		}
		for _, pid := range v.Runnable {
			op := v.Pending[pid]
			if op.Kind == OpWrite || op.Kind == OpProbWrite {
				return pid
			}
		}
		return v.Runnable[0]
	}
	conflicting := -1
	for _, pid := range v.Runnable {
		op := v.Pending[pid]
		if (op.Kind == OpWrite || op.Kind == OpProbWrite) && !op.Val.IsNone() && op.Val != cur {
			conflicting = pid
			break
		}
	}
	if s.wantWrite {
		if conflicting >= 0 {
			s.wantWrite = false
			return conflicting
		}
		if pid := v.NextPending(OpRead, 0); pid >= 0 {
			return pid
		}
		return v.Runnable[0]
	}
	// Commit a victim to the current value before spoiling it.
	if pid := v.NextPending(OpRead, 0); pid >= 0 {
		s.wantWrite = true
		return pid
	}
	if conflicting >= 0 {
		return conflicting
	}
	return v.Runnable[0]
}

// Seed implements Scheduler (deterministic strategy; resets the
// commit/spoil alternation).
func (s *AdaptiveSpoiler) Seed(*xrand.Source) { s.wantWrite = false }

// Name implements Scheduler.
func (s *AdaptiveSpoiler) Name() string { return "adaptive-spoiler" }

// MinPower implements Scheduler.
func (s *AdaptiveSpoiler) MinPower() Power { return Adaptive }
