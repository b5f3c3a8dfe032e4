package xrand

import "math"

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Box–Muller transform. The noisy scheduler of Aspnes's "Fast deterministic
// consensus in a noisy environment" model perturbs step times with Gaussian
// jitter; this is the only consumer of real-valued randomness in the module.
func (s *Source) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue // avoid log(0)
		}
		v := s.Float64()
		r := math.Sqrt(-2 * math.Log(u))
		return r * math.Cos(2*math.Pi*v)
	}
}
