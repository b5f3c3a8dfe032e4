package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"strings"
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

// histStream returns n seeded values: mostly below denseSize, about a fifth
// up to 2^20, and one in a hundred near 2^62, so every bucket region is fed.
// With small set, every value is below 64 instead.
func histStream(seed uint64, n int, small bool) []int64 {
	rng := rand.New(rand.NewPCG(seed, 11))
	vals := make([]int64, n)
	for i := range vals {
		switch r := rng.IntN(100); {
		case small:
			vals[i] = rng.Int64N(64)
		case r == 0:
			vals[i] = 1<<62 + rng.Int64N(1<<40)
		case r < 20:
			vals[i] = rng.Int64N(1 << 20)
		default:
			vals[i] = rng.Int64N(denseSize)
		}
	}
	return vals
}

// sameAsReference fails t unless h prints, marshals and answers quantiles
// exactly as the reference ref does, before and after a JSON round trip.
func sameAsReference(t *testing.T, h *Hist, ref *refHist) {
	t.Helper()
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("JSON differs from the reference:\n got %s\nwant %s", got, want)
	}
	if h.String() != ref.String() {
		t.Fatalf("String = %q, reference %q", h.String(), ref.String())
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		if g, w := h.Quantile(q), ref.Quantile(q); g != w {
			t.Fatalf("Quantile(%v) = %d, reference %d", q, g, w)
		}
	}
	var back Hist
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(want) {
		t.Fatalf("JSON round trip differs from the reference:\n got %s\nwant %s", again, want)
	}
}

// TestHistMatchesReference pins the one-array layout against the histogram
// it replaced: fed the same seeded streams, whole and merged from 1, 4 and
// 16 shards, Hist gives the reference's JSON bytes, summary line and
// quantiles.
func TestHistMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		n     int
		small bool
	}{{1, 5000, false}, {2, 5000, false}, {3, 300, false}, {4, 2000, true}, {5, 7, false}, {6, 0, false}} {
		t.Run(fmt.Sprintf("seed=%d/n=%d/small=%v", tc.seed, tc.n, tc.small), func(t *testing.T) {
			vals := histStream(tc.seed, tc.n, tc.small)
			var h Hist
			var ref refHist
			for _, v := range vals {
				h.Add(v)
				ref.Add(v)
			}
			sameAsReference(t, &h, &ref)
			for _, shards := range []int{1, 4, 16} {
				parts, refParts := make([]Hist, shards), make([]refHist, shards)
				for i, v := range vals {
					parts[i%shards].Add(v)
					refParts[i%shards].Add(v)
				}
				var merged Hist
				var refMerged refHist
				for i := range parts {
					merged.Merge(&parts[i])
					refMerged.Merge(&refParts[i])
				}
				sameAsReference(t, &merged, &refMerged)
			}
		})
	}
}

// TestHistFootprintFollowsLargestBucket pins that a histogram's bucket
// memory follows the largest bucket it has seen, not the width of the
// unit-bucket region: 1,000 histograms of 100 values below 64 each
// allocate under 4 KB apiece, where one whole unit region is 32 KB.
func TestHistFootprintFollowsLargestBucket(t *testing.T) {
	const hists, per = 1000, 100
	vals := histStream(9, hists*per, true)
	hs := make([]Hist, hists)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, v := range vals {
		hs[i/per].Add(v)
	}
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(hs)
	if perHist := (m1.TotalAlloc - m0.TotalAlloc) / hists; perHist >= 4096 {
		t.Fatalf("%d B allocated per histogram of %d values below 64, want under 4096", perHist, per)
	}
}

// TestHistUnmarshalRejectsForeignBuckets pins that UnmarshalJSON accepts
// exactly the buckets of the layout: a negative lo or count, or a [lo, hi]
// pair other than the bounds of lo's bucket, is an error, never an index
// out of range or a silently widened bucket.
func TestHistUnmarshalRejectsForeignBuckets(t *testing.T) {
	for _, tc := range []struct {
		name, bucket string
		ok           bool
	}{
		{"unit bucket", `{"lo":5,"hi":5,"count":2}`, true},
		{"last unit bucket", `{"lo":4095,"hi":4095,"count":1}`, true},
		{"first log2 bucket", `{"lo":4096,"hi":8191,"count":1}`, true},
		{"last log2 bucket", `{"lo":4611686018427387904,"hi":9223372036854775807,"count":1}`, true},
		{"empty bucket", `{"lo":0,"hi":0,"count":0}`, true},
		{"negative lo", `{"lo":-1,"hi":-1,"count":1}`, false},
		{"most negative lo", `{"lo":-9223372036854775808,"hi":-1,"count":1}`, false},
		{"negative count", `{"lo":5,"hi":5,"count":-1}`, false},
		{"span of unit buckets", `{"lo":3,"hi":4,"count":1}`, false},
		{"hi below lo", `{"lo":7,"hi":6,"count":1}`, false},
		{"unit range in the log2 region", `{"lo":4096,"hi":4096,"count":1}`, false},
		{"log2 bucket cut short", `{"lo":4096,"hi":8000,"count":1}`, false},
		{"log2 bucket off a power of two", `{"lo":5000,"hi":8191,"count":1}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Hist
			err := json.Unmarshal([]byte(`{"n":1,"min":0,"max":0,"buckets":[`+tc.bucket+`]}`), &h)
			switch {
			case tc.ok && err != nil:
				t.Fatalf("rejected a bucket of the layout: %v", err)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "is not a bucket of the layout")):
				t.Fatalf("err = %v, want a bucket-layout error", err)
			}
		})
	}
}

// refHist is the histogram as it was before its buckets became one array:
// a dense slice allocated whole plus a map of log2 buckets. It is kept
// verbatim, as the reference TestHistMatchesReference pins Hist against.
//
// Values in [0, 4096) are counted exactly in unit buckets; larger values land
// in log2 buckets [2^(k-1), 2^k). Min, max, count, sum, and sum of squares
// are tracked exactly as integers, so Mean and Std are exact up to one final
// float conversion and Merge is order-independent: merging per-worker
// histograms yields bit-identical results at any worker count.
//
// The zero value is an empty histogram ready for use. refHist is not safe for
// concurrent use; the harness feeds it under its sweep's fold lock, one
// trial at a time, in trial order.
type refHist struct {
	n     int64
	sum   int64
	sumSq int64
	min   int64
	max   int64
	dense []int64       // lazily allocated unit buckets for [0, denseSize)
	log2  map[int]int64 // log2 buckets for values >= denseSize, keyed by bits.Len64(v)
}

// Add records one observation. Negative values are clamped to zero (the
// quantities observed — steps, ops, decisions — are non-negative by
// construction; clamping keeps a buggy caller from corrupting bucket math).
func (h *refHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.sumSq += v * v
	if v < denseSize {
		if h.dense == nil {
			h.dense = make([]int64, denseSize)
		}
		h.dense[v]++
		return
	}
	if h.log2 == nil {
		h.log2 = make(map[int]int64)
	}
	h.log2[bits.Len64(uint64(v))]++
}

// AddInt records one int observation.
func (h *refHist) AddInt(v int) { h.Add(int64(v)) }

// Merge folds other into h. Because all state is integer counts and sums,
// Merge is exact and commutative: any partition of the same observations into
// per-worker histograms merges to bit-identical totals.
func (h *refHist) Merge(other *refHist) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
	h.sumSq += other.sumSq
	if other.dense != nil {
		if h.dense == nil {
			h.dense = make([]int64, denseSize)
		}
		for v, c := range other.dense {
			h.dense[v] += c
		}
	}
	for k, c := range other.log2 {
		if h.log2 == nil {
			h.log2 = make(map[int]int64)
		}
		h.log2[k] += c
	}
}

// N returns the number of observations.
func (h *refHist) N() int64 { return h.n }

// Sum returns the exact integer sum of all observations.
func (h *refHist) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 if empty).
func (h *refHist) Min() int64 { return h.min }

// Max returns the largest observation (0 if empty).
func (h *refHist) Max() int64 { return h.max }

// Mean returns the exact mean (integer sum over integer count, converted to
// float once). Returns 0 for an empty histogram.
func (h *refHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Std returns the sample standard deviation (n-1 denominator), computed from
// the exact integer sum and sum of squares. Returns 0 for n < 2.
func (h *refHist) Std() float64 {
	if h.n < 2 {
		return 0
	}
	nf := float64(h.n)
	mean := float64(h.sum) / nf
	variance := (float64(h.sumSq) - nf*mean*mean) / (nf - 1)
	if variance < 0 { // guard float cancellation
		variance = 0
	}
	return math.Sqrt(variance)
}

// SE returns the standard error of the mean (Std/sqrt(n)). Returns 0 for
// n < 2.
func (h *refHist) SE() float64 {
	if h.n < 2 {
		return 0
	}
	return h.Std() / math.Sqrt(float64(h.n))
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank: the value
// whose cumulative count first reaches ceil(q*n). Within the exact region
// ([0, 4096)) the result is the exact order statistic; in the log2 region it
// is the midpoint of the matching bucket. Returns 0 for an empty histogram.
func (h *refHist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for v, c := range h.dense {
		cum += c
		if cum >= rank {
			return int64(v)
		}
	}
	// Walk log2 buckets in increasing value order: key k covers
	// [2^(k-1), 2^k - 1].
	for k := bits.Len64(denseSize); k <= 64; k++ {
		c, ok := h.log2[k]
		if !ok {
			continue
		}
		cum += c
		if cum >= rank {
			lo := int64(1) << (k - 1)
			hi := lo<<1 - 1
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			return lo + (hi-lo)/2
		}
	}
	return h.max
}

// P50 returns the median observation.
func (h *refHist) P50() int64 { return h.Quantile(0.50) }

// P90 returns the 90th-percentile observation.
func (h *refHist) P90() int64 { return h.Quantile(0.90) }

// P99 returns the 99th-percentile observation.
func (h *refHist) P99() int64 { return h.Quantile(0.99) }

// Buckets returns the non-empty buckets in increasing value order: unit
// buckets from the exact region followed by log2 buckets.
func (h *refHist) Buckets() []Bucket {
	var bs []Bucket
	for v, c := range h.dense {
		if c > 0 {
			bs = append(bs, Bucket{Lo: int64(v), Hi: int64(v), Count: c})
		}
	}
	for k := bits.Len64(denseSize); k <= 64; k++ {
		if c := h.log2[k]; c > 0 {
			lo := int64(1) << (k - 1)
			bs = append(bs, Bucket{Lo: lo, Hi: lo<<1 - 1, Count: c})
		}
	}
	return bs
}

// String renders the summary line used in tables and notes, e.g.
// "n=400 mean=63.1 min=12 p50=62 p90=79 p99=96 max=141".
func (h *refHist) String() string {
	if h.n == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f min=%d p50=%d p90=%d p99=%d max=%d",
		h.n, h.Mean(), h.min, h.P50(), h.P90(), h.P99(), h.max)
	return b.String()
}

// MarshalJSON emits the summary statistics (including the exact integer sum
// and sum of squares) and the non-empty buckets. The encoding is
// deterministic: buckets are ordered by value.
func (h *refHist) MarshalJSON() ([]byte, error) {
	return json.Marshal(histJSON{
		N: h.n, Mean: h.Mean(), Sum: h.sum, SumSq: h.sumSq,
		Min: h.min, Max: h.max,
		P50: h.P50(), P90: h.P90(), P99: h.P99(),
		Buckets: h.Buckets(),
	})
}

// UnmarshalJSON restores the state emitted by MarshalJSON. Sum, sum of
// squares, min, max, and unit-bucket counts survive exactly; only the
// positions of observations inside a log2 bucket are lost (which is all the
// bucket ever knew).
func (h *refHist) UnmarshalJSON(data []byte) error {
	var raw histJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*h = refHist{n: raw.N, sum: raw.Sum, sumSq: raw.SumSq, min: raw.Min, max: raw.Max}
	for _, b := range raw.Buckets {
		if b.Lo == b.Hi && b.Lo < denseSize {
			if h.dense == nil {
				h.dense = make([]int64, denseSize)
			}
			h.dense[b.Lo] += b.Count
		} else {
			if h.log2 == nil {
				h.log2 = make(map[int]int64)
			}
			h.log2[bits.Len64(uint64(b.Lo))] += b.Count
		}
	}
	return nil
}
