package sched

import (
	"fmt"
	"slices"

	"github.com/modular-consensus/modcon/internal/xrand"
)

// RoundRobin schedules runnable processes in cyclic pid order. It is the
// canonical oblivious adversary ("schedules processes in a fixed order").
type RoundRobin struct{ cursor }

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Next implements Scheduler.
func (s *RoundRobin) Next(v *View) int { return s.pick(v) }

// Seed implements Scheduler (no randomness used; resets the cursor).
func (s *RoundRobin) Seed(*xrand.Source) { s.cursor = cursor{} }

// Name implements Scheduler.
func (s *RoundRobin) Name() string { return "round-robin" }

// MinPower implements Scheduler.
func (s *RoundRobin) MinPower() Power { return Oblivious }

// cursor is the one cyclic pick of the package: round-robin (so lockstep),
// the attacks' neutral round-robin and cheapest release, and Parametric's
// round-robin base. It picks the first candidate at or after the pid after
// its last pick, wrapping to the lowest.
type cursor struct{ next int }

// pick returns the first runnable pid at or after the cursor in cyclic pid
// order and moves the cursor past it. The search stays in nextRunnable so
// that pick is small enough to inline: a step costs one call.
func (c *cursor) pick(v *View) int {
	pid := nextRunnable(v, c.next)
	c.next = pid + 1
	return pid
}

// pickIn is pick over run, an ascending nonempty subset of v.Runnable.
func (c *cursor) pickIn(run []int) int {
	pid := nextIn(run, c.next)
	c.next = pid + 1
	return pid
}

// nextRunnable returns the first runnable pid at or after from in cyclic
// pid order: from itself when it is runnable, else by binary search.
func nextRunnable(v *View, from int) int {
	if from < len(v.Pending) && v.Pending[from].Valid {
		return from
	}
	return nextIn(v.Runnable, from)
}

// nextIn returns the first pid of run, ascending and nonempty, at or after
// from in cyclic order.
func nextIn(run []int, from int) int {
	i, _ := slices.BinarySearch(run, from)
	if i == len(run) {
		i = 0
	}
	return run[i]
}

// FixedOrder repeats a fixed permutation of the processes, skipping halted
// ones: the adversary commits to the entire schedule in advance.
type FixedOrder struct {
	perm []int
	pos  int
}

// NewFixedOrder returns a scheduler cycling through perm, which must be a
// permutation of [0, n) for the executions' n. NewFixedOrder panics when
// perm is not a permutation of [0, len(perm)), naming the entry at fault,
// and Next panics when len(perm) is not the view's n.
func NewFixedOrder(perm []int) *FixedOrder {
	seen := make([]bool, len(perm))
	for _, pid := range perm {
		if pid < 0 || pid >= len(perm) {
			panic(fmt.Sprintf("sched: FixedOrder entry %d out of range [0, %d)", pid, len(perm)))
		}
		if seen[pid] {
			panic(fmt.Sprintf("sched: FixedOrder repeats pid %d", pid))
		}
		seen[pid] = true
	}
	return &FixedOrder{perm: slices.Clone(perm)}
}

// Next implements Scheduler.
func (s *FixedOrder) Next(v *View) int {
	if len(s.perm) != v.N {
		panic(fmt.Sprintf("sched: FixedOrder permutation length %d != n=%d", len(s.perm), v.N))
	}
	for range s.perm {
		pid := s.perm[s.pos]
		s.pos = (s.pos + 1) % len(s.perm)
		if v.Pending[pid].Valid {
			return pid
		}
	}
	panic("sched: FixedOrder.Next with no runnable process")
}

// Seed implements Scheduler (no randomness used; resets the position).
func (s *FixedOrder) Seed(*xrand.Source) { s.pos = 0 }

// Name implements Scheduler.
func (s *FixedOrder) Name() string { return "fixed-order" }

// MinPower implements Scheduler.
func (s *FixedOrder) MinPower() Power { return Oblivious }

// UniformRandom schedules a uniformly random runnable process at every step.
// Oblivious in the paper's sense: its choices do not depend on the execution
// beyond liveness.
type UniformRandom struct {
	src *xrand.Source
}

// NewUniformRandom returns a uniform random scheduler.
func NewUniformRandom() *UniformRandom { return &UniformRandom{} }

// Next implements Scheduler.
func (s *UniformRandom) Next(v *View) int {
	if s.src == nil {
		panic("sched: UniformRandom used before Seed")
	}
	return v.Runnable[s.src.Intn(len(v.Runnable))]
}

// Seed implements Scheduler.
func (s *UniformRandom) Seed(src *xrand.Source) { s.src = src }

// Name implements Scheduler.
func (s *UniformRandom) Name() string { return "uniform-random" }

// MinPower implements Scheduler.
func (s *UniformRandom) MinPower() Power { return Oblivious }

// Laggard always runs the process that has taken the fewest steps so far
// (the lowest pid on ties), keeping the whole system in lockstep. Lockstep
// is the hardest symmetric schedule for first-mover protocols (everybody
// attempts together), yet it needs no knowledge of the execution content,
// only of its own past choices, so it is oblivious.
//
// It is RoundRobin under another name, because the two pick the same pid
// at every step. Within an execution the runnable set only shrinks (a
// process that halts, crashes or stalls never runs again) and each pick
// adds a step to the chosen pid alone. So, with k the fewest steps, the
// runnable pids below round-robin's cursor have taken k+1 steps and those
// at or above it k, and the fewest-steps pid is the first runnable pid at
// or after the cursor in cyclic order: round-robin's pick.
type Laggard struct{ roundRobin }

// roundRobin names RoundRobin for embedding without exporting the field.
type roundRobin = RoundRobin

// NewLaggard returns a lockstep scheduler.
func NewLaggard() *Laggard { return &Laggard{} }

// Name implements Scheduler.
func (s *Laggard) Name() string { return "laggard-lockstep" }

// Frontrunner always runs the runnable process that has taken the most
// steps (the lowest pid on ties), letting one process race arbitrarily far
// ahead — the schedule that exercises fast paths and solo executions.
//
// It counts no steps, because that process is always the lowest runnable
// pid, which is what Priority picks in pid order. The runnable set only
// shrinks within an execution and each pick adds a step to the chosen pid
// alone. The first pick is the lowest pid, all tied at zero; it then has
// the only steps among the runnable pids, so it is picked again until it
// leaves the runnable set, when every runnable pid has zero steps again
// and the lowest of them, again Runnable[0], is picked.
type Frontrunner struct{}

// NewFrontrunner returns a frontrunner scheduler.
func NewFrontrunner() *Frontrunner { return &Frontrunner{} }

// Next implements Scheduler.
func (s *Frontrunner) Next(v *View) int { return v.Runnable[0] }

// Seed implements Scheduler (deterministic strategy).
func (s *Frontrunner) Seed(*xrand.Source) {}

// Name implements Scheduler.
func (s *Frontrunner) Name() string { return "frontrunner" }

// MinPower implements Scheduler.
func (s *Frontrunner) MinPower() Power { return Oblivious }
