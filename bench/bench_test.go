package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tiny sizes every workload at a few ops per round, so the whole suite runs
// in seconds under the race detector.
var tiny = map[string]int{
	"solve-n8-attack":   4,
	"sweep-n32-attack":  40,
	"trials-n32-faults": 24,
	"exp-e6":            1,
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			w, err := sp.newRunner(7, 2)
			if err != nil {
				t.Fatal(err)
			}
			plain := w.round(0, tiny[sp.name], nil)
			traced := w.round(0, tiny[sp.name], newTracer(true))
			for _, o := range []roundOut{plain, traced} {
				if o.failed+o.violations > 0 {
					t.Fatalf("%d failed, %d violations: %s", o.failed, o.violations, o.firstProblem)
				}
			}
			if plain.digest != traced.digest {
				t.Fatalf("traced digest %x differs from untraced %x", traced.digest, plain.digest)
			}
			if again := w.round(0, tiny[sp.name], nil); again.digest != plain.digest {
				t.Fatalf("digest not reproducible: %x then %x", plain.digest, again.digest)
			}
		})
	}
}

// failingRunner fails one op of round failAt and completes every other op.
type failingRunner struct{ failAt int }

func (f failingRunner) round(r, size int, _ *tracer) roundOut {
	out := roundOut{ops: size, lat: make([]int64, size)}
	if r == f.failAt {
		out.problem(false, "op 0: injected failure")
	}
	return out
}

func TestFailedOpMakesRunIncorrect(t *testing.T) {
	for _, c := range []struct {
		name   string
		failAt int
		want   bool
	}{
		{"none", -1, true},
		{"measured", 1, false},
		{"warm-up", 1 << 20, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sp := spec{name: "failing", size: 2, warm: 2, newRunner: func(uint64, int) (runner, error) {
				return failingRunner{failAt: c.failAt}, nil
			}}
			cr, err := runChild(childOpts{spec: sp, rounds: 2, mainStart: now()})
			if err != nil {
				t.Fatal(err)
			}
			m := mergeChildren([]*childResult{cr, cr})
			if m.Correct != c.want {
				t.Errorf("correct = %v, want %v (failed %d)", m.Correct, c.want, m.Failed)
			}
			if wantFailed := map[bool]int{true: 0, false: 2}[c.want]; m.Failed != wantFailed {
				t.Errorf("failed = %d, want %d", m.Failed, wantFailed)
			}
		})
	}
}

func TestCellTimesTakeEachCellsBest(t *testing.T) {
	a := &childResult{Rounds: []roundStat{{Ops: 40}}}
	b := &childResult{Rounds: []roundStat{{Ops: 40}}}
	for r, lat := range [][]int64{{4e6, 1e6, 9e6, 2e6}, {3e6, 2e6, 8e6, 2e6}} {
		a.bestCells(r, lat)
	}
	b.bestCells(0, []int64{5e6, 1e6, 6e6, 3e6})
	opsPerS, p50, p90 := cellTimes([]*childResult{a, b})
	// Best cells: 3, 1, 6 and 2 ms, 12 ms in all.
	if want := 40 / 12e-3; math.Abs(opsPerS-want) > 1e-9*want {
		t.Errorf("ops_per_s = %v, want %v", opsPerS, want)
	}
	if p50 != 2000 || p90 != 6000 {
		t.Errorf("p50, p90 = %v, %v µs, want 2000, 6000", p50, p90)
	}
	a.bestCells(2, []int64{1})
	if a.Failed != 1 {
		t.Errorf("a round with another cell count did not fail")
	}
}

func readBenchmark(t *testing.T) map[string]any {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameUnits checks that got and the named list of BENCHMARK.json hold the
// same metric names with the same units, in both directions.
func sameUnits(t *testing.T, list []any, got map[string]metricValue) {
	t.Helper()
	want := map[string]string{}
	for _, x := range list {
		m := x.(map[string]any)
		want[m["name"].(string)] = m["unit"].(string)
	}
	for name, unit := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("BENCHMARK.json metric %s missing from the output", name)
		} else if g.Unit != unit {
			t.Errorf("metric %s: unit %q in output, %q in BENCHMARK.json", name, g.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("output metric %s missing from BENCHMARK.json", name)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmark(t)
	var names []string
	for _, x := range bj["workloads"].([]any) {
		w := x.(map[string]any)
		sp, ok := lookupSpec(w["name"].(string))
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload", w["name"])
		} else if sp.why != w["why"] {
			t.Errorf("workload %s: why differs from BENCHMARK.json", sp.name)
		}
		names = append(names, w["name"].(string))
	}
	if len(names) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(specs))
	}

	sp, _ := lookupSpec("solve-n8-attack")
	o := childOpts{spec: sp, seed: 3, rounds: 1, size: 3, warm: 1, mainStart: now()}
	cr, err := runChild(o)
	if err != nil {
		t.Fatal(err)
	}
	sameUnits(t, bj["end_to_end"].([]any), endToEndMetrics(cr, cr.SetupS, 1))

	o.trace = true
	cr, err = runChild(o)
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]metricValue{}
	for _, d := range perLayer {
		if _, ok := cr.Layers[d.Name]; !ok {
			t.Errorf("traced run does not compute %s", d.Name)
		}
		layers[d.Name] = metricValue{cr.Layers[d.Name], d.Unit}
	}
	if len(cr.Layers) != len(perLayer) {
		t.Errorf("traced run computes %d metrics, perLayer lists %d", len(cr.Layers), len(perLayer))
	}
	sameUnits(t, bj["per_layer"].([]any), layers)
}

var layerNames = [nLayers]string{"build", "setup", "engine", "sched", "object", "harness", "facade", "client"}

// TestSelfTimesPartitionRoots checks that the layer self times of a tiny
// traced run add up to the roots' capacity less the calibrated clock reads,
// and that on the serial root no layer's self time is negative beyond the
// clock error (which would mean a child interval outran its parent).
func TestSelfTimesPartitionRoots(t *testing.T) {
	for _, name := range []string{"solve-n8-attack", "sweep-n32-attack"} {
		t.Run(name, func(t *testing.T) {
			sp, _ := lookupSpec(name)
			w, err := sp.newRunner(5, 2)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(false)
			for r := 0; r < 2; r++ {
				w.round(r, tiny[name], tr)
			}
			readNs := calibrateClock()
			root := lClient
			if sp.parallel {
				root = lHarness
			}
			self := tr.tot.selfTimes(readNs, root)
			var reads int64
			for k := range tr.tot.n {
				reads += tr.tot.n[k] + tr.tot.childN[k]
			}
			sum := 0.0
			for l, v := range self {
				sum += v
				if !sp.parallel && v < -2*readNs*float64(reads) {
					t.Errorf("layer %s self time %.0f ns is negative beyond the clock error", layerNames[l], v)
				}
			}
			want := float64(tr.tot.capacity) - readNs*float64(reads)
			if math.Abs(sum-want) > 1e-6*float64(tr.tot.capacity)+1 {
				t.Errorf("self times sum to %.0f ns, want capacity less clock reads %.0f ns", sum, want)
			}
			if tr.tot.n[kNext] == 0 || tr.tot.n[kObj] == 0 || tr.tot.steps == 0 {
				t.Errorf("per-step counters empty: next %d, object %d, steps %d", tr.tot.n[kNext], tr.tot.n[kObj], tr.tot.steps)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudgeMetric(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want verdict
	}{
		{base, vSame},
		{shift(1.2), vGain},
		{shift(0.8), vRegression},
		{[]float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}, vUnresolved},
	} {
		if got, _ := judgeMetric(d, base, c.head); got != c.want {
			t.Errorf("head %v: verdict %s, want %s", c.head[:2], got, c.want)
		}
	}
	// A nearly exact count: the head wins every pair by 0.1%, more than the
	// base's zero interquartile range but less than a tenth of the bound.
	exact := []float64{100, 100, 100, 100, 100}
	if got, _ := judgeMetric(d, exact, []float64{100.1, 100.1, 100.1, 100.1, 100.1}); got != vSame {
		t.Errorf("0.1%% wobble on an exact count: verdict %s, want same", got)
	}
}
