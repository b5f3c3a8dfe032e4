package stats

import (
	"math"
	"testing"
)

func TestTally(t *testing.T) {
	var a Tally
	a.Add(true)
	a.Add(false)
	a.Add(true)
	if a.Successes != 2 || a.Trials != 3 {
		t.Fatalf("tally %+v", a)
	}
	if got, want := a.Proportion(), NewProportion(2, 3); got != want {
		t.Fatalf("proportion %+v != %+v", got, want)
	}
}

func TestProportion(t *testing.T) {
	p := NewProportion(50, 100)
	if p.P != 0.5 {
		t.Fatalf("P = %v", p.P)
	}
	if p.Lo >= 0.5 || p.Hi <= 0.5 {
		t.Fatalf("interval [%v, %v] excludes point estimate", p.Lo, p.Hi)
	}
	// Wilson at p=0.5, n=100: approx [0.404, 0.596].
	if math.Abs(p.Lo-0.4038) > 0.01 || math.Abs(p.Hi-0.5962) > 0.01 {
		t.Fatalf("interval [%v, %v]", p.Lo, p.Hi)
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

func TestProportionEdges(t *testing.T) {
	zero := NewProportion(0, 10)
	if zero.P != 0 || zero.Lo != 0 || zero.Hi <= 0 {
		t.Fatalf("zero %+v", zero)
	}
	one := NewProportion(10, 10)
	if one.P != 1 || one.Hi != 1 || one.Lo >= 1 {
		t.Fatalf("one %+v", one)
	}
}

func TestProportionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProportion(0, 0)
}

func TestProportionCoverageNarrowsWithN(t *testing.T) {
	small := NewProportion(5, 10)
	large := NewProportion(500, 1000)
	if large.Hi-large.Lo >= small.Hi-small.Lo {
		t.Fatal("interval did not narrow with more trials")
	}
}

func TestFitRecoversExactLaws(t *testing.T) {
	ns := []float64{4, 8, 16, 32, 64, 128}
	mk := func(f func(n float64) float64) []float64 {
		ys := make([]float64, len(ns))
		for i, n := range ns {
			ys[i] = f(n)
		}
		return ys
	}
	cases := []struct {
		shape Shape
		f     func(n float64) float64
		a, b  float64
	}{
		{ShapeLog, func(n float64) float64 { return 2*math.Log2(n) + 3 }, 2, 3},
		{ShapeLinear, func(n float64) float64 { return 6*n + 1 }, 6, 1},
		{ShapeNLogN, func(n float64) float64 { return 0.5*n*math.Log2(n) - 2 }, 0.5, -2},
	}
	for _, tt := range cases {
		fit := FitShape(tt.shape, ns, mk(tt.f))
		if math.Abs(fit.A-tt.a) > 1e-9 || math.Abs(fit.B-tt.b) > 1e-9 {
			t.Errorf("%v: got A=%v B=%v, want %v %v", tt.shape, fit.A, fit.B, tt.a, tt.b)
		}
		if fit.R2 < 0.999999 {
			t.Errorf("%v: R² = %v", tt.shape, fit.R2)
		}
	}
}

func TestFitConst(t *testing.T) {
	fit := FitShape(ShapeConst, []float64{2, 4, 8}, []float64{5, 5, 5})
	if fit.A != 0 || fit.B != 5 || fit.RMSE != 0 {
		t.Fatalf("fit %+v", fit)
	}
}

func TestBestShapeSelectsCorrectLaw(t *testing.T) {
	ns := []float64{4, 8, 16, 32, 64, 128, 256}
	logY := make([]float64, len(ns))
	linY := make([]float64, len(ns))
	for i, n := range ns {
		logY[i] = 2*math.Log2(n) + 1
		linY[i] = 3 * n
	}
	if got := BestShape(ns, logY); got.Shape != ShapeLog {
		t.Errorf("log data fitted as %v", got.Shape)
	}
	if got := BestShape(ns, linY); got.Shape != ShapeLinear {
		t.Errorf("linear data fitted as %v", got.Shape)
	}
	// Restricted candidate set.
	if got := BestShape(ns, linY, ShapeLinear, ShapeNLogN); got.Shape != ShapeLinear {
		t.Errorf("restricted fit chose %v", got.Shape)
	}
}

func TestFitPanicsOnTooFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitShape(ShapeLog, []float64{2}, []float64{1})
}

func TestShapeStrings(t *testing.T) {
	for s, want := range map[Shape]string{
		ShapeConst: "O(1)", ShapeLog: "O(log n)",
		ShapeLinear: "O(n)", ShapeNLogN: "O(n log n)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d: %q != %q", int(s), got, want)
		}
	}
	fit := FitShape(ShapeLog, []float64{2, 4}, []float64{1, 2})
	if fit.String() == "" {
		t.Fatal("empty fit string")
	}
}
