package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// TestHistExactSmallValues pins that every statistic is exact when all
// observations fall in the unit-bucket region.
func TestHistExactSmallValues(t *testing.T) {
	var h Hist
	vals := []int64{12, 60, 60, 62, 79, 96, 141, 3, 3, 50}
	for _, v := range vals {
		h.Add(v)
	}
	if h.N() != int64(len(vals)) {
		t.Fatalf("N = %d, want %d", h.N(), len(vals))
	}
	if h.Min() != 3 || h.Max() != 141 {
		t.Fatalf("min/max = %d/%d, want 3/141", h.Min(), h.Max())
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), sum)
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Nearest rank: q-quantile is sorted[ceil(q*n)-1].
	if got, want := h.P50(), sorted[4]; got != want {
		t.Errorf("P50 = %d, want %d", got, want)
	}
	if got, want := h.P90(), sorted[8]; got != want {
		t.Errorf("P90 = %d, want %d", got, want)
	}
	if got, want := h.P99(), sorted[9]; got != want {
		t.Errorf("P99 = %d, want %d", got, want)
	}
	if got := h.Quantile(0); got != 3 {
		t.Errorf("Quantile(0) = %d, want 3", got)
	}
	if got := h.Quantile(1); got != 141 {
		t.Errorf("Quantile(1) = %d, want 141", got)
	}
}

// TestHistLog2Region pins bucket placement and quantile resolution for large
// values: within the matching log2 bucket, clamped by observed min/max.
func TestHistLog2Region(t *testing.T) {
	var h Hist
	h.Add(5000)  // bucket [4096, 8191]
	h.Add(6000)  // same bucket
	h.Add(70000) // bucket [65536, 131071]
	if h.Max() != 70000 || h.Min() != 5000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	p50 := h.P50()
	if p50 < 4096 || p50 > 8191 {
		t.Errorf("P50 = %d, want within [4096, 8191]", p50)
	}
	if got := h.Quantile(1); got != 70000 {
		t.Errorf("Quantile(1) = %d, want 70000", got)
	}
	bs := h.Buckets()
	if len(bs) != 2 {
		t.Fatalf("Buckets = %v, want 2 buckets", bs)
	}
	if bs[0].Lo != 4096 || bs[0].Hi != 8191 || bs[0].Count != 2 {
		t.Errorf("bucket 0 = %+v", bs[0])
	}
	if bs[1].Lo != 65536 || bs[1].Count != 1 {
		t.Errorf("bucket 1 = %+v", bs[1])
	}
}

// TestHistMergeShardingInvariant pins the determinism contract: partitioning
// one observation stream into any number of shard histograms and merging
// yields a histogram deep-equal to single-stream accumulation.
func TestHistMergeShardingInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	vals := make([]int64, 5000)
	for i := range vals {
		if rng.IntN(10) == 0 {
			vals[i] = int64(rng.IntN(1 << 20)) // some in the log2 region
		} else {
			vals[i] = int64(rng.IntN(denseSize))
		}
	}
	var whole Hist
	for _, v := range vals {
		whole.Add(v)
	}
	for _, shards := range []int{1, 4, 16} {
		parts := make([]Hist, shards)
		for i, v := range vals {
			parts[i%shards].Add(v)
		}
		var merged Hist
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if !reflect.DeepEqual(&whole, &merged) {
			t.Errorf("shards=%d: merged histogram differs from single-stream", shards)
		}
	}
}

// TestHistNegativeClamped pins that negative observations clamp to zero.
func TestHistNegativeClamped(t *testing.T) {
	var h Hist
	h.Add(-5)
	if h.Min() != 0 || h.Max() != 0 || h.N() != 1 {
		t.Fatalf("clamp failed: %s", h.String())
	}
}

// TestHistEmpty pins zero-value behaviour.
func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.P99() != 0 || h.Std() != 0 || h.String() != "n=0" {
		t.Fatalf("empty hist: %s", h.String())
	}
	var other Hist
	h.Merge(&other)
	h.Merge(nil)
	if h.N() != 0 {
		t.Fatalf("merging empties changed N")
	}
}

// TestHistStd checks Std/SE against a direct two-pass computation.
func TestHistStd(t *testing.T) {
	var h Hist
	vals := []int64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		h.Add(v)
	}
	// Known: mean 5, population variance 4, sample variance 32/7.
	if h.Mean() != 5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	wantStd := 2.1380899352993947 // sqrt(32/7)
	if diff := h.Std() - wantStd; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Std = %v, want %v", h.Std(), wantStd)
	}
}

// TestHistJSONRoundTrip pins the JSON shape and that summary statistics
// survive a round trip.
func TestHistJSONRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []int64{1, 2, 2, 3, 5000} {
		h.Add(v)
	}
	b, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != h.N() || back.Min() != h.Min() || back.Max() != h.Max() {
		t.Fatalf("round trip lost summary: %s vs %s", back.String(), h.String())
	}
	if back.P50() != h.P50() || back.P90() != h.P90() {
		t.Fatalf("round trip lost quantiles: %s vs %s", back.String(), h.String())
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("re-marshal differs:\n%s\n%s", b, b2)
	}
}

// TestHistSingleObservation pins that one observation is every statistic,
// in the unit-bucket region and in the log2 region alike.
func TestHistSingleObservation(t *testing.T) {
	for _, v := range []int64{0, 7, denseSize - 1, denseSize, 70000} {
		t.Run(fmt.Sprintf("v=%d", v), func(t *testing.T) {
			var h Hist
			h.Add(v)
			if h.Mean() != float64(v) || h.Std() != 0 || h.SE() != 0 {
				t.Fatalf("mean/std/se = %v/%v/%v, want %d/0/0", h.Mean(), h.Std(), h.SE(), v)
			}
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
				if got := h.Quantile(q); got != v {
					t.Errorf("Quantile(%v) = %d, want %d", q, got, v)
				}
			}
		})
	}
}

// TestHistNearestRankQuantiles pins the nearest-rank rule on the sample
// 0..100, fed in descending order: the q-quantile is the ceil(q*101)-th
// smallest value.
func TestHistNearestRankQuantiles(t *testing.T) {
	var h Hist
	for v := int64(100); v >= 0; v-- {
		h.Add(v)
	}
	if h.P50() != 50 || h.P90() != 90 || h.P99() != 99 {
		t.Fatalf("P50/P90/P99 = %d/%d/%d, want 50/90/99", h.P50(), h.P90(), h.P99())
	}
}

// TestHistMeanMatchesFloatFold pins what lets the experiment tables take
// their means from a Hist: over integer samples whose sum is exact in a
// float64, the mean equals a float64 fold of the samples divided by their
// count, bit for bit.
func TestHistMeanMatchesFloatFold(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Hist
		sum := 0.0
		for _, r := range raw {
			v := int64(r >> 8) // both bucket regions; sums stay below 2^53
			h.Add(v)
			sum += float64(v)
		}
		return h.Mean() == sum/float64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHistSEMatchesTwoPass checks SE, which the experiment tables print as
// their "± SE" columns, against the two-pass sample formula.
func TestHistSEMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, n := range []int{2, 3, 37, 500} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var h Hist
			vals := make([]float64, n)
			mean := 0.0
			for i := range vals {
				v := int64(1 + rng.IntN(2*denseSize)) // both bucket regions
				h.Add(v)
				vals[i] = float64(v)
				mean += vals[i]
			}
			mean /= float64(n)
			ss := 0.0
			for _, x := range vals {
				ss += (x - mean) * (x - mean)
			}
			want := math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
			if math.Abs(h.SE()-want) > 1e-9*want {
				t.Fatalf("SE = %v, want %v", h.SE(), want)
			}
		})
	}
}

// TestHistSummaryOrdering checks on random samples that the summary
// statistics are ordered: min <= p50 <= p90 <= p99 <= max, and the mean
// lies within [min, max].
func TestHistSummaryOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Hist
		for _, r := range raw {
			h.Add(int64(r >> 12)) // both bucket regions
		}
		m := h.Mean()
		return h.Min() <= h.P50() && h.P50() <= h.P90() && h.P90() <= h.P99() && h.P99() <= h.Max() &&
			float64(h.Min()) <= m && m <= float64(h.Max())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
