// Package obs is the observability plane: streaming histograms, progress
// reporting, run manifests, and step meters.
//
// Everything in this package is built around two hard contracts:
//
//   - Determinism. Histograms hold only integer counts and integer sums, so
//     accumulation and Merge are exact — the same multiset of observations
//     produces bit-identical aggregates no matter how it was sharded across
//     workers, as long as observations are folded through the harness's
//     in-order reorder buffer (which fixes the fold order and feeds one
//     trial at a time).
//
//   - Zero overhead when off. The hooks the backends consult (Meter) are
//     nil-safe pointers: a disabled plane costs one predictable nil check per
//     step and zero allocations. internal/sim pins this with an allocation
//     test next to TestStepLoopZeroAllocs.
//
// obs sits below every other layer of the repository: it imports only the
// standard library, so exec, sim, live, harness, exp, and the public modcon
// package can all thread it through without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// denseSize = 2^denseBits is the width of the exact-count region of a Hist.
// Observations in [0, denseSize) each get their own unit bucket, so
// quantiles over typical per-trial step and work counts (hundreds to a few
// thousand) are exact. Observations >= denseSize fall into log2 buckets.
const (
	denseBits = 12
	denseSize = 1 << denseBits
)

// bucketOf returns the index of the bucket holding v >= 0. The whole bucket
// layout lives here and in bucketBounds: bucket v for v < denseSize, then
// one bucket per bit length, bucket denseSize+k-denseBits-1 holding the
// values of bit length k, [2^(k-1), 2^k - 1].
func bucketOf(v int64) int {
	if v < denseSize {
		return int(v)
	}
	return denseSize + bits.Len64(uint64(v)) - denseBits - 1
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < denseSize {
		return int64(b), int64(b)
	}
	lo = int64(1) << (b - denseSize + denseBits)
	return lo, lo<<1 - 1
}

// Hist is a fixed-bucket streaming histogram of non-negative integer
// observations (step counts, per-process work, decisions per trial).
//
// Values in [0, 4096) are counted exactly in unit buckets; larger values land
// in log2 buckets [2^(k-1), 2^k). The bucket counts are one array, grown to
// the largest bucket observed, so a histogram of small values stays small.
// Min, max, count, sum, and sum of squares are tracked exactly as integers,
// so Mean and Std are exact up to one final float conversion and Merge is
// order-independent: merging per-worker histograms yields bit-identical
// results at any worker count.
//
// The zero value is an empty histogram ready for use. Hist is not safe for
// concurrent use; the harness feeds it under its sweep's fold lock, one
// trial at a time, in trial order.
type Hist struct {
	n      int64
	sum    int64
	sumSq  int64
	min    int64
	max    int64
	counts []int64 // counts[b] observations in bucket b (bucketOf), up to the largest bucket seen
}

// grow extends the bucket array to hold bucket b.
func (h *Hist) grow(b int) {
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
	}
}

// Add records one observation. Negative values are clamped to zero (the
// quantities observed — steps, ops, decisions — are non-negative by
// construction; clamping keeps a buggy caller from corrupting bucket math).
func (h *Hist) Add(v int64) {
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
	b := bucketOf(v)
	h.grow(b)
	h.counts[b]++
}

// AddInt records one int observation.
func (h *Hist) AddInt(v int) { h.Add(int64(v)) }

// Merge folds other into h. Because all state is integer counts and sums,
// Merge is exact and commutative: any partition of the same observations into
// per-worker histograms merges to bit-identical totals.
func (h *Hist) Merge(other *Hist) {
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
	h.grow(len(other.counts) - 1)
	for b, c := range other.counts {
		h.counts[b] += c
	}
}

// N returns the number of observations.
func (h *Hist) N() int64 { return h.n }

// Sum returns the exact integer sum of all observations.
func (h *Hist) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 if empty).
func (h *Hist) Min() int64 { return h.min }

// Max returns the largest observation (0 if empty).
func (h *Hist) Max() int64 { return h.max }

// Mean returns the exact mean (integer sum over integer count, converted to
// float once). Returns 0 for an empty histogram.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Std returns the sample standard deviation (n-1 denominator), computed from
// the exact integer sum and sum of squares. Returns 0 for n < 2.
func (h *Hist) Std() float64 {
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
func (h *Hist) SE() float64 {
	if h.n < 2 {
		return 0
	}
	return h.Std() / math.Sqrt(float64(h.n))
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank: the value
// whose cumulative count first reaches ceil(q*n). Within the exact region
// ([0, 4096)) the result is the exact order statistic; in the log2 region it
// is the midpoint of the matching bucket, clamped to the observed min and
// max. Returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) int64 {
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
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, hi := bucketBounds(b)
			lo, hi = max(lo, h.min), min(hi, h.max)
			return lo + (hi-lo)/2
		}
	}
	return h.max
}

// P50 returns the median observation.
func (h *Hist) P50() int64 { return h.Quantile(0.50) }

// P90 returns the 90th-percentile observation.
func (h *Hist) P90() int64 { return h.Quantile(0.90) }

// P99 returns the 99th-percentile observation.
func (h *Hist) P99() int64 { return h.Quantile(0.99) }

// Bucket is one non-empty histogram bucket: Count observations with values in
// [Lo, Hi] inclusive.
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in increasing value order: unit
// buckets from the exact region followed by log2 buckets.
func (h *Hist) Buckets() []Bucket {
	var bs []Bucket
	for b, c := range h.counts {
		if c > 0 {
			lo, hi := bucketBounds(b)
			bs = append(bs, Bucket{Lo: lo, Hi: hi, Count: c})
		}
	}
	return bs
}

// String renders the summary line used in tables and notes, e.g.
// "n=400 mean=63.1 min=12 p50=62 p90=79 p99=96 max=141".
func (h *Hist) String() string {
	if h.n == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f min=%d p50=%d p90=%d p99=%d max=%d",
		h.n, h.Mean(), h.min, h.P50(), h.P90(), h.P99(), h.max)
	return b.String()
}

// histJSON is the stable JSON shape of a Hist: summary statistics plus the
// non-empty buckets, so artifacts are self-describing without the Go type.
type histJSON struct {
	N       int64    `json:"n"`
	Mean    float64  `json:"mean"`
	Sum     int64    `json:"sum"`
	SumSq   int64    `json:"sumSq"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P90     int64    `json:"p90"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MarshalJSON emits the summary statistics (including the exact integer sum
// and sum of squares) and the non-empty buckets. The encoding is
// deterministic: buckets are ordered by value.
func (h *Hist) MarshalJSON() ([]byte, error) {
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
// bucket ever knew). A bucket whose range is not exactly one bucket of the
// layout, or whose count is negative, is an error.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var raw histJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*h = Hist{n: raw.N, sum: raw.Sum, sumSq: raw.SumSq, min: raw.Min, max: raw.Max}
	for _, bk := range raw.Buckets {
		b := bucketOf(bk.Lo)
		if lo, hi := bucketBounds(b); bk.Lo < 0 || bk.Count < 0 || lo != bk.Lo || hi != bk.Hi {
			return fmt.Errorf("obs: histogram bucket [%d, %d] count %d is not a bucket of the layout", bk.Lo, bk.Hi, bk.Count)
		}
		h.grow(b)
		h.counts[b] += bk.Count
	}
	return nil
}
