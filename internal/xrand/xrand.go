// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Determinism matters here: every execution of the simulated shared-memory
// system is a pure function of (algorithm, scheduler, seed), so failures can
// be replayed exactly. The standard library's math/rand/v2 would work, but a
// local implementation keeps the module dependency-free, guarantees stable
// streams across Go releases, and supports splitting (hierarchical seeding)
// so that each process's local coin stream is independent of the scheduler's
// stream.
//
// The core generator is xoshiro256** seeded through splitmix64, the
// construction recommended by its authors.
package xrand

import "math/bits"

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; give each goroutine its own Source (see Split).
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from the given seed. Distinct seeds give
// (statistically) independent streams.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed reinitializes the Source in place from seed.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
	// xoshiro requires a nonzero state; splitmix64 only yields all-zero
	// output with negligible probability, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances *x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Split derives a new, statistically independent Source from this one using
// the stream index i. Splitting the same Source state with distinct indices
// yields distinct streams; the parent stream is not advanced.
func (s *Source) Split(i uint64) *Source {
	var child Source
	s.SplitInto(&child, i)
	return &child
}

// SplitInto reinitializes dst in place with the child stream Split(i) would
// return, without allocating. It is the reset-path form of Split: a reusable
// engine re-derives its per-process streams into preallocated Sources on
// every trial, and the two must agree bit for bit, so both go through this
// one derivation.
func (s *Source) SplitInto(dst *Source, i uint64) {
	// Mix the full parent state with the index through splitmix64 so that
	// children of different parents, and different children of one parent,
	// all diverge.
	seed := s.s0 ^ bits.RotateLeft64(s.s1, 13) ^ bits.RotateLeft64(s.s2, 29) ^ bits.RotateLeft64(s.s3, 43)
	seed ^= 0xd1b54a32d192ed03 * (i + 1)
	dst.Reseed(seed)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method.
func (s *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability num/den. Probabilities are passed
// as exact rationals because the algorithms in this module use write
// probabilities of the form 2^k/n, and rounding through float64 would bias
// the very quantity (agreement probability) the experiments measure.
// Bernoulli panics if den == 0; num >= den always returns true.
func (s *Source) Bernoulli(num, den uint64) bool {
	if den == 0 {
		panic("xrand: Bernoulli with zero denominator")
	}
	if num >= den {
		return true
	}
	if num == 0 {
		return false
	}
	return s.boundedUint64(den) < num
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
