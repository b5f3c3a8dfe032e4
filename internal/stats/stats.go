// Package stats provides the small statistical toolkit the experiment
// harness uses: binomial confidence intervals for agreement probabilities,
// and least-squares fits against the growth shapes the paper's theorems
// predict (constant, log n, n, n log n). Means and quantiles of work come
// from obs.Hist.
package stats

import (
	"fmt"
	"math"
)

// Tally counts successes over trials for a binomial estimate.
type Tally struct {
	Successes, Trials int
}

// Add records one trial.
func (t *Tally) Add(ok bool) {
	t.Trials++
	if ok {
		t.Successes++
	}
}

// Proportion returns the Wilson 95% interval of the tally; like
// NewProportion it panics when no trials were recorded.
func (t Tally) Proportion() Proportion { return NewProportion(t.Successes, t.Trials) }

// Proportion is a binomial estimate with a Wilson score interval.
type Proportion struct {
	Successes, Trials int
	// P is the point estimate successes/trials.
	P float64
	// Lo and Hi bound the 95% Wilson score interval.
	Lo, Hi float64
}

// NewProportion computes the Wilson 95% interval for successes/trials.
// It panics when trials <= 0.
func NewProportion(successes, trials int) Proportion {
	if trials <= 0 {
		panic("stats: Proportion with no trials")
	}
	const z = 1.959963984540054 // 97.5th percentile of N(0,1)
	p := float64(successes) / float64(trials)
	n := float64(trials)
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	return Proportion{
		Successes: successes,
		Trials:    trials,
		P:         p,
		Lo:        math.Max(0, center-half),
		Hi:        math.Min(1, center+half),
	}
}

// String renders the estimate as "p [lo, hi]".
func (p Proportion) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", p.P, p.Lo, p.Hi)
}

// Shape is a candidate growth law for fitting y(n).
type Shape int

const (
	// ShapeConst fits y = a.
	ShapeConst Shape = iota + 1
	// ShapeLog fits y = a·lg n + b.
	ShapeLog
	// ShapeLinear fits y = a·n + b.
	ShapeLinear
	// ShapeNLogN fits y = a·n·lg n + b.
	ShapeNLogN
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeConst:
		return "O(1)"
	case ShapeLog:
		return "O(log n)"
	case ShapeLinear:
		return "O(n)"
	case ShapeNLogN:
		return "O(n log n)"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// basis maps n to the shape's regressor value.
func (s Shape) basis(n float64) float64 {
	switch s {
	case ShapeConst:
		return 0
	case ShapeLog:
		return math.Log2(n)
	case ShapeLinear:
		return n
	case ShapeNLogN:
		return n * math.Log2(n)
	default:
		panic(fmt.Sprintf("stats: unknown shape %d", int(s)))
	}
}

// Fit is a least-squares fit y ≈ A·basis(n) + B with quality R².
type Fit struct {
	Shape Shape
	A, B  float64
	// R2 is the coefficient of determination (1 = perfect fit).
	R2 float64
	// RMSE is the root-mean-square residual.
	RMSE float64
}

// String renders the fitted law.
func (f Fit) String() string {
	return fmt.Sprintf("%s: y = %.3f·x + %.3f (R²=%.3f)", f.Shape, f.A, f.B, f.R2)
}

// FitShape fits y against the given shape by ordinary least squares.
// It panics if fewer than 2 points are provided.
func FitShape(shape Shape, ns []float64, ys []float64) Fit {
	if len(ns) != len(ys) || len(ns) < 2 {
		panic(fmt.Sprintf("stats: FitShape needs ≥2 matched points, got %d/%d", len(ns), len(ys)))
	}
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = shape.basis(n)
	}
	meanX, meanY := mean(xs), mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	f := Fit{Shape: shape}
	if shape == ShapeConst || sxx == 0 {
		f.A, f.B = 0, meanY
	} else {
		f.A = sxy / sxx
		f.B = meanY - f.A*meanX
	}
	var sse float64
	for i := range xs {
		r := ys[i] - (f.A*xs[i] + f.B)
		sse += r * r
	}
	if syy > 0 {
		f.R2 = 1 - sse/syy
	} else {
		f.R2 = 1
	}
	f.RMSE = math.Sqrt(sse / float64(len(xs)))
	return f
}

// BestShape fits every candidate shape and returns the one with the lowest
// RMSE — the harness uses it to report which growth law the measurements
// support.
func BestShape(ns, ys []float64, candidates ...Shape) Fit {
	if len(candidates) == 0 {
		candidates = []Shape{ShapeConst, ShapeLog, ShapeLinear, ShapeNLogN}
	}
	best := FitShape(candidates[0], ns, ys)
	for _, c := range candidates[1:] {
		if f := FitShape(c, ns, ys); f.RMSE < best.RMSE {
			best = f
		}
	}
	return best
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
