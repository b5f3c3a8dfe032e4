package sched

import (
	"fmt"
	"slices"

	"github.com/modular-consensus/modcon/internal/xrand"
)

// Noisy implements the noisy scheduling model of Aspnes, "Fast deterministic
// consensus in a noisy environment" (§4.2 of the paper): the adversary fixes
// the intended timing of every process's steps in advance, but each step
// time is perturbed by random error that accumulates over time. Eventually
// the cumulative drift pushes some process ahead of all others, which is
// what makes the ratifier-only protocol R terminate.
//
// Process i's k-th operation fires at time
//
//	t(i,k) = t(i,k-1) + interval(i) + sigma*|N(0,1)|-ish jitter
//
// and the scheduler always executes the runnable process with the smallest
// next-fire time. With sigma = 0 and equal intervals this degenerates into a
// deterministic lockstep (pid-order tie-breaking), under which R would never
// terminate — tests use that as a negative control.
type Noisy struct {
	// Sigma is the standard deviation of the per-step Gaussian jitter.
	Sigma float64
	// Intervals optionally sets per-process base step intervals; nil means
	// every process intends one step per time unit.
	Intervals []float64

	src  *xrand.Source
	next []float64
}

// NewNoisy returns a noisy scheduler with jitter sigma.
func NewNoisy(sigma float64) *Noisy {
	if sigma < 0 {
		panic(fmt.Sprintf("sched: negative sigma %v", sigma))
	}
	return &Noisy{Sigma: sigma}
}

// Next implements Scheduler.
func (s *Noisy) Next(v *View) int {
	if len(s.next) == 0 {
		if s.src == nil {
			panic("sched: Noisy used before Seed")
		}
		if cap(s.next) < v.N {
			s.next = make([]float64, v.N)
		} else {
			s.next = s.next[:v.N]
		}
		for i := range s.next {
			s.next[i] = s.interval(i) + s.jitter()
		}
	}
	best := -1
	for _, pid := range v.Runnable {
		if best == -1 || s.next[pid] < s.next[best] {
			best = pid
		}
	}
	s.next[best] += s.interval(best) + s.jitter()
	return best
}

func (s *Noisy) interval(pid int) float64 {
	if s.Intervals == nil {
		return 1
	}
	return s.Intervals[pid]
}

// jitter draws the per-step timing error. The drift must keep times
// monotone, so the error is clamped to keep each inter-step gap positive.
func (s *Noisy) jitter() float64 {
	if s.Sigma == 0 {
		return 0
	}
	e := s.Sigma * s.src.NormFloat64()
	if e < -0.99 {
		e = -0.99
	}
	return e
}

// Seed implements Scheduler. Beyond installing the stream it discards the
// fire-time table (keeping its backing array), so the next execution redraws
// its initial jitter from the fresh stream.
func (s *Noisy) Seed(src *xrand.Source) {
	s.src = src
	s.next = s.next[:0]
}

// Name implements Scheduler.
func (s *Noisy) Name() string { return fmt.Sprintf("noisy(σ=%g)", s.Sigma) }

// MinPower implements Scheduler. The noisy scheduler fixes timings without
// looking at the execution, so it is oblivious.
func (s *Noisy) MinPower() Power { return Oblivious }

// Priority implements the priority-based scheduling restriction of
// Ramamurthy, Moir, and Anderson (§4.2 of the paper): each process has a
// fixed unique priority and every step is taken by the highest-priority
// process with a pending operation.
type Priority struct {
	// Ranks maps pid -> priority rank (0 = highest). Nil means pid order.
	Ranks []int
}

// NewPriority returns a priority scheduler; ranks may be nil for pid order
// (pid 0 is highest priority).
func NewPriority(ranks []int) *Priority { return &Priority{Ranks: slices.Clone(ranks)} }

// Next implements Scheduler. It panics when Ranks is set but does not hold
// one rank per process.
func (s *Priority) Next(v *View) int {
	if s.Ranks == nil {
		return v.Runnable[0]
	}
	if len(s.Ranks) != v.N {
		panic(fmt.Sprintf("sched: Priority has %d ranks for n=%d", len(s.Ranks), v.N))
	}
	best := v.Runnable[0]
	for _, pid := range v.Runnable[1:] {
		if s.Ranks[pid] < s.Ranks[best] {
			best = pid
		}
	}
	return best
}

// Seed implements Scheduler (deterministic strategy).
func (s *Priority) Seed(*xrand.Source) {}

// Name implements Scheduler.
func (s *Priority) Name() string { return "priority" }

// MinPower implements Scheduler.
func (s *Priority) MinPower() Power { return Oblivious }
