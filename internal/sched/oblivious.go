package sched

import (
	"fmt"
	"slices"

	"github.com/modular-consensus/modcon/internal/xrand"
)

// RoundRobin schedules runnable processes in cyclic pid order. It is the
// canonical oblivious adversary ("schedules processes in a fixed order").
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Next implements Scheduler.
func (s *RoundRobin) Next(v *View) int {
	pid := nextRunnable(v, s.next)
	s.next = pid + 1
	return pid
}

// nextRunnable returns the first runnable pid at or after from in cyclic
// pid order: from itself when it is runnable, else by binary search.
func nextRunnable(v *View, from int) int {
	if from < len(v.Pending) && v.Pending[from].Valid {
		return from
	}
	i, _ := slices.BinarySearch(v.Runnable, from)
	if i == len(v.Runnable) {
		i = 0
	}
	return v.Runnable[i]
}

// Seed implements Scheduler (no randomness used; resets the cursor).
func (s *RoundRobin) Seed(*xrand.Source) { s.next = 0 }

// Name implements Scheduler.
func (s *RoundRobin) Name() string { return "round-robin" }

// MinPower implements Scheduler.
func (s *RoundRobin) MinPower() Power { return Oblivious }

// FixedOrder repeats a fixed permutation of the processes, skipping halted
// ones: the adversary commits to the entire schedule in advance.
type FixedOrder struct {
	perm []int
	pos  int
}

// NewFixedOrder returns a scheduler cycling through perm. perm must be a
// permutation of [0, n); this is validated on first use against the view.
func NewFixedOrder(perm []int) *FixedOrder {
	cp := make([]int, len(perm))
	copy(cp, perm)
	return &FixedOrder{perm: cp}
}

// Next implements Scheduler.
func (s *FixedOrder) Next(v *View) int {
	if len(s.perm) != v.N {
		panic(fmt.Sprintf("sched: FixedOrder permutation length %d != n=%d", len(s.perm), v.N))
	}
	for i := 0; i < len(s.perm); i++ {
		pid := s.perm[s.pos]
		s.pos = (s.pos + 1) % len(s.perm)
		if pid < 0 || pid >= v.N {
			panic(fmt.Sprintf("sched: FixedOrder entry %d out of range", pid))
		}
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
// It counts no steps: a cursor after the last pick finds the same pid in
// O(log n) at worst. Within an execution the runnable set only shrinks (a process
// that halts, crashes or stalls never runs again) and each pick adds a
// step to the chosen pid alone. So, with k the fewest steps, the runnable
// pids below the cursor have taken k+1 steps and those at or above it k,
// and the fewest-steps pid is the first runnable pid at or after the
// cursor in cyclic order: the pick of RoundRobin, which lockstep therefore
// equals step for step.
type Laggard struct {
	next int
}

// NewLaggard returns a lockstep scheduler.
func NewLaggard() *Laggard { return &Laggard{} }

// Next implements Scheduler.
func (s *Laggard) Next(v *View) int {
	pid := nextRunnable(v, s.next)
	s.next = pid + 1
	return pid
}

// Seed implements Scheduler (no randomness used; resets the cursor).
func (s *Laggard) Seed(*xrand.Source) { s.next = 0 }

// Name implements Scheduler.
func (s *Laggard) Name() string { return "laggard-lockstep" }

// MinPower implements Scheduler.
func (s *Laggard) MinPower() Power { return Oblivious }

// Frontrunner always runs the runnable process that has taken the most
// steps, letting one process race arbitrarily far ahead — the schedule that
// exercises fast paths and solo executions.
type Frontrunner struct {
	steps []int
}

// NewFrontrunner returns a frontrunner scheduler.
func NewFrontrunner() *Frontrunner { return &Frontrunner{} }

// Next implements Scheduler.
func (s *Frontrunner) Next(v *View) int {
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

// Seed implements Scheduler (no randomness used; resets the step counters,
// keeping their backing array for pooled reuse).
func (s *Frontrunner) Seed(*xrand.Source) {
	for i := range s.steps {
		s.steps[i] = 0
	}
}

// Name implements Scheduler.
func (s *Frontrunner) Name() string { return "frontrunner" }

// MinPower implements Scheduler.
func (s *Frontrunner) MinPower() Power { return Oblivious }
