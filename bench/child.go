package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"

	modcon "github.com/modular-consensus/modcon"
)

// childOpts is what one workload process runs.
type childOpts struct {
	spec      spec
	seed      uint64
	rounds    int
	size      int // 0 = spec.size
	warm      int // 0 = spec.warm
	trace     bool
	traceOut  string
	mainStart int64 // now() at main entry
}

// roundStat is one measured round of the untraced run.
type roundStat struct {
	WallS      float64 `json:"wallS"`
	Ops        int     `json:"ops"`
	Allocs     float64 `json:"allocsPerOp"`
	Bytes      float64 `json:"bytesPerOp"`
	P50us      float64 `json:"p50us"`
	P90us      float64 `json:"p90us"`
	TracedWall float64 `json:"tracedWallS,omitempty"`
	Digest     string  `json:"digest"`
}

// childResult is what a workload process reports to its parent on its
// standard output.
type childResult struct {
	SetupS       float64            `json:"setupS"`
	ClockReadNs  float64            `json:"clockReadNs"`
	Rounds       []roundStat        `json:"rounds,omitempty"`
	Digest       string             `json:"digest,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Violations   int                `json:"violations"`
	FirstProblem string             `json:"firstProblem,omitempty"`
	Correct      bool               `json:"correct"`
	LatN         int                `json:"latN"`
	P99us        float64            `json:"p99us"`
	P999us       float64            `json:"p999us"`
	GCFrac       float64            `json:"gcCPUFrac"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	// CellBestNs is, for workloads whose ops are cells (exp-e6), each cell's
	// best time over the untraced rounds.
	CellBestNs []int64 `json:"cellBestNs,omitempty"`
}

func (c *childResult) account(o roundOut) {
	c.Attempted += o.ops
	c.Failed += o.failed
	c.Violations += o.violations
	if c.FirstProblem == "" {
		c.FirstProblem = o.firstProblem
	}
}

var gcMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readGC() [3]float64 {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var v [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// runChild sets a workload up, warms it, then measures its rounds; with
// trace set, each untraced round is followed by the same round traced.
func runChild(o childOpts) (*childResult, error) {
	if o.size == 0 {
		o.size = o.spec.size
	}
	if o.warm == 0 {
		o.warm = o.spec.warm
	}
	res := &childResult{}
	w, err := o.spec.newRunner(o.seed, procs)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", o.spec.name, err)
	}
	// The warm-up round uses a round index no measured round uses. Its ops
	// count as attempted, and its failures as failed.
	res.account(w.round(1<<20, o.warm, nil))
	res.SetupS = float64(now()-o.mainStart) / 1e9

	var tr *tracer
	if o.trace {
		tr = newTracer(o.traceOut != "")
	}
	var lat []float64
	var overheads, clock []float64
	var untracedCap float64
	tracedOps := 0
	var ms0, ms1 runtime.MemStats
	gc0 := readGC()
	for r := 0; r < o.rounds; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := now()
		out := w.round(r, o.size, nil)
		wall := now() - t0
		runtime.ReadMemStats(&ms1)
		res.account(out)
		st := roundStat{
			WallS: float64(wall) / 1e9, Ops: out.ops,
			Allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(out.ops),
			Bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(out.ops),
			Digest: hex.EncodeToString(out.digest[:]),
		}
		st.P50us, st.P90us = quantileUs(out.lat, 0.50), quantileUs(out.lat, 0.90)
		for _, l := range out.lat {
			lat = append(lat, float64(l))
		}
		untracedCap += float64(wall) * float64(rootProcs(o.spec))
		if o.spec.cells {
			res.bestCells(r, out.lat)
		}
		if tr != nil {
			clock = append(clock, calibrateClock())
			runtime.GC()
			t1 := now()
			tout := w.round(r, o.size, tr)
			st.TracedWall = float64(now()-t1) / 1e9
			res.account(tout)
			tracedOps += tout.ops
			overheads = append(overheads, st.TracedWall/st.WallS-1)
			if tout.digest != out.digest {
				res.Correct = false
				if res.FirstProblem == "" {
					res.FirstProblem = fmt.Sprintf("round %d: traced digest differs from untraced", r)
				}
			}
		}
		res.Rounds = append(res.Rounds, st)
	}
	gc1 := readGC()
	if busy := (gc1[1] - gc0[1]) - (gc1[2] - gc0[2]); busy > 0 {
		res.GCFrac = (gc1[0] - gc0[0]) / busy
	}
	res.Digest = digestOf(res.Rounds)
	res.LatN = len(lat)
	sort.Float64s(lat)
	res.P99us, res.P999us = nearestRank(lat, 0.99)/1e3, nearestRank(lat, 0.999)/1e3
	res.Correct = res.Failed+res.Violations == 0
	if tr != nil {
		res.ClockReadNs = median(clock)
		res.layerMetrics(o.spec, tr, float64(tracedOps), untracedCap, median(overheads))
		if o.traceOut != "" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return nil, err
			}
			if err := tr.writeSpans(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// bestCells keeps each cell's best time over the rounds so far; every round
// runs the same cells in the same order.
func (c *childResult) bestCells(r int, lat []int64) {
	if c.CellBestNs == nil {
		c.CellBestNs = append([]int64(nil), lat...)
		return
	}
	if len(lat) != len(c.CellBestNs) {
		c.Failed++
		if c.FirstProblem == "" {
			c.FirstProblem = fmt.Sprintf("round %d: %d cells, round 0 had %d", r, len(lat), len(c.CellBestNs))
		}
		return
	}
	for i, l := range lat {
		c.CellBestNs[i] = min(c.CellBestNs[i], l)
	}
}

// rootProcs is how many processors a workload's root keeps busy.
func rootProcs(sp spec) int {
	if sp.parallel {
		return procs
	}
	return 1
}

// digestOf folds the rounds' digests, in order, into the run's digest.
func digestOf(rounds []roundStat) string {
	f := newFolder()
	for _, r := range rounds {
		f.h.Write([]byte(r.Digest))
	}
	d := f.sum()
	return hex.EncodeToString(d[:])
}

// layerMetrics turns the traced rounds' totals into the per-layer metrics.
func (res *childResult) layerMetrics(sp spec, tr *tracer, ops, untracedCap, overhead float64) {
	t := &tr.tot
	rootLayer := lClient
	if sp.parallel {
		rootLayer = lHarness
	}
	self := t.selfTimes(res.ClockReadNs, rootLayer)
	total := 0.0
	for _, v := range self {
		total += v
	}
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	sessions := float64(t.n[kSetup]) / 2
	res.Layers = map[string]float64{
		"build.calls_per_op":     per(float64(t.n[kBuild]), ops),
		"build.us_per_call":      per(self[lBuild], float64(t.n[kBuild])) / 1e3,
		"build.allocs_per_call":  buildAllocs(sp.buildNs),
		"build.share":            per(self[lBuild], total),
		"sched.next_per_op":      per(float64(t.n[kNext]), ops),
		"sched.ns_per_next":      per(self[lSched], float64(t.n[kNext])),
		"sched.share":            per(self[lSched], total),
		"object.ns_per_step":     per(self[lObject], float64(t.steps)),
		"object.share":           per(self[lObject], total),
		"engine.sessions_per_op": per(sessions, ops),
		"engine.setup_us":        per(self[lSetup], sessions) / 1e3,
		"engine.ns_per_step":     per(self[lEngine], float64(t.steps)),
		"engine.share":           per(self[lSetup]+self[lEngine], total),
		"harness.ns_per_op":      per(self[lHarness], ops),
		"harness.share":          per(self[lHarness], total),
		"facade.share":           per(self[lFacade], total),
		"client.share":           per(self[lClient], total),
		"runtime.gc_cpu_frac":    res.GCFrac,
		"trace.overhead_frac":    overhead,
		"trace.residual_frac":    math.Abs(per(total-untracedCap, untracedCap)),
	}
	if sp.cells {
		for name := range res.Layers {
			if !observable(name) {
				res.Layers[name] = 0
			}
		}
	}
}

// buildAllocs measures the heap allocations of one Consensus.Build at each
// process count, in isolation, and averages them.
func buildAllocs(ns []int) float64 {
	if len(ns) == 0 {
		return 0
	}
	var ms0, ms1 runtime.MemStats
	sum := 0.0
	for _, n := range ns {
		c, err := modcon.NewBinary(n)
		if err != nil {
			return 0
		}
		const reps = 2
		runtime.ReadMemStats(&ms0)
		for i := 0; i < reps; i++ {
			if _, _, err := c.Build(); err != nil {
				return 0
			}
		}
		runtime.ReadMemStats(&ms1)
		sum += float64(ms1.Mallocs-ms0.Mallocs) / reps
	}
	return sum / float64(len(ns))
}

// quantileUs returns the nearest-rank q-quantile of latencies in µs.
func quantileUs(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := make([]float64, len(lat))
	for i, l := range lat {
		s[i] = float64(l)
	}
	sort.Float64s(s)
	return nearestRank(s, q) / 1e3
}

// nearestRank returns the nearest-rank q-quantile of sorted values.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median returns the median of values (0 for none).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
