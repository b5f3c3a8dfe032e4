package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d vs %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("reseed did not restart stream at %d", i)
		}
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	s := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("seed 0 produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	c1again := parent.Split(0)
	for i := 0; i < 100; i++ {
		v1, v2 := c1.Uint64(), c2.Uint64()
		if v1 == v2 {
			t.Fatalf("children 0 and 1 collided at %d", i)
		}
		if got := c1again.Uint64(); got != v1 {
			t.Fatalf("Split is not deterministic at %d", i)
		}
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	_ = a.Split(3)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared style sanity check: 10 buckets, 100k draws.
	s := New(2024)
	const buckets, draws = 10, 100000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestBernoulliExactCases(t *testing.T) {
	s := New(4)
	for i := 0; i < 100; i++ {
		if !s.Bernoulli(1, 1) {
			t.Fatal("Bernoulli(1,1) returned false")
		}
		if !s.Bernoulli(5, 3) {
			t.Fatal("Bernoulli(5,3) (num>den) returned false")
		}
		if s.Bernoulli(0, 10) {
			t.Fatal("Bernoulli(0,10) returned true")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	tests := []struct {
		num, den uint64
	}{
		{1, 2}, {1, 4}, {3, 4}, {1, 64}, {7, 100}, {1, 3},
	}
	for _, tt := range tests {
		s := New(tt.num*1000 + tt.den)
		const n = 200000
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(tt.num, tt.den) {
				hits++
			}
		}
		p := float64(tt.num) / float64(tt.den)
		got := float64(hits) / n
		tol := 4 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("Bernoulli(%d,%d): rate %v, want %v ± %v", tt.num, tt.den, got, p, tol)
		}
	}
}

func TestBernoulliPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bernoulli(1,0) did not panic")
		}
	}()
	New(1).Bernoulli(1, 0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(6)
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		s.Reseed(seed)
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(8)
	const n, draws = 5, 50000
	var count [n]int
	for i := 0; i < draws; i++ {
		count[s.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first-element bucket %d count %d, want ~%f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkBernoulli(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Bernoulli(3, 7)
	}
}
