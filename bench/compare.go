package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the comparator needs.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &bf, nil
}

func loadResults(glob string) ([]*resultFile, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(paths)
	var out []*resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, &r)
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of values
// by the method of Python's statistics.quantiles(values, n=4) (exclusive).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// verdict is the comparator's finding for one workload × metric.
type verdict string

const (
	vGain       verdict = "gain"
	vRegression verdict = "regression"
	vUnresolved verdict = "unresolved"
	vSame       verdict = "same"
)

// judgeMetric applies the rules to the paired runs of one metric. A gain
// needs the head to win at least 9/10 of the pairs (ties count for neither)
// and the medians to differ by more than the base's interquartile range and
// by more than a tenth of the bound: nearly exact counts such as
// allocs_per_op have an interquartile range near zero, and a 0.001% wobble
// in them is not a gain. A
// regression is a head median worse than the base's by more than the bound.
// Otherwise a spread (IQR / median) on either side wider than the bound
// leaves the metric unresolved, unless every head run beats every base run.
func judgeMetric(d metricDef, base, head []float64) (verdict, float64) {
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	change := 0.0
	if bmed != 0 {
		change = (hmed - bmed) / bmed
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	diff := math.Abs(hmed - bmed)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(hmed, bmed) &&
		diff > bq3-bq1 && diff > d.Bound/10*math.Abs(bmed) {
		return vGain, change
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	if worse > d.Bound {
		return vRegression, change
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	if !allBetter && math.Max(spread(bq1, bmed, bq3), spread(hq1, hmed, hq3)) > d.Bound {
		return vUnresolved, change
	}
	return vSame, change
}

// compareReport counts the comparator's findings.
type compareReport struct {
	gains, regressions, unresolved, flags int
}

// compareGlobs compares base and head result files per workload and
// end-to-end metric, pairing runs in file-name order.
func compareGlobs(benchPath, baseGlob, headGlob string, w io.Writer) (compareReport, error) {
	var rep compareReport
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		return rep, err
	}
	base, err := loadResults(baseGlob)
	if err != nil {
		return rep, err
	}
	head, err := loadResults(headGlob)
	if err != nil {
		return rep, err
	}
	byWorkload := func(rs []*resultFile) map[string][]*resultFile {
		m := map[string][]*resultFile{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	fmt.Fprintf(w, "%-18s %-14s %28s %28s %9s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	for _, sp := range specs {
		bs, hs := bw[sp.name], hw[sp.name]
		if len(bs) == 0 || len(hs) == 0 {
			continue
		}
		for _, d := range bf.EndToEnd {
			bv, hv := values(bs, d.Name), values(hs, d.Name)
			v, change := judgeMetric(d, bv, hv)
			switch v {
			case vGain:
				rep.gains++
			case vRegression:
				rep.regressions++
			case vUnresolved:
				rep.unresolved++
			}
			bq1, bm, bq3 := quartiles(bv)
			hq1, hm, hq3 := quartiles(hv)
			fmt.Fprintf(w, "%-18s %-14s %28s %28s %+8.2f%%  %s\n", sp.name, d.Name,
				band(bm, bq1, bq3), band(hm, hq1, hq3), 100*change, v)
		}
		digests := map[uint64]string{}
		for _, r := range append(append([]*resultFile(nil), bs...), hs...) {
			if d, ok := digests[r.Seed]; ok && d != r.Digest {
				fmt.Fprintf(w, "%-18s FLAG digest mismatch at seed %d: %s vs %s\n", sp.name, r.Seed, d, r.Digest)
				rep.flags++
				break
			}
			digests[r.Seed] = r.Digest
		}
		if maxFailed(hs) > maxFailed(bs) {
			fmt.Fprintf(w, "%-18s FLAG failed_frac rose from %g to %g\n", sp.name, maxFailed(bs), maxFailed(hs))
			rep.flags++
		}
	}
	fmt.Fprintf(w, "summary: %d gain, %d regression, %d unresolved, %d flag\n", rep.gains, rep.regressions, rep.unresolved, rep.flags)
	return rep, nil
}

func values(rs []*resultFile, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

func maxFailed(rs []*resultFile) float64 {
	m := 0.0
	for _, r := range rs {
		m = math.Max(m, r.FailedFrac)
	}
	return m
}

func band(med, q1, q3 float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// runAA runs the benchmark 2n times per workload, interleaved A,B,A,B with
// one seed (the host drifts, so both sets must sample the same stretches of
// time), then compares the sets. It passes when the comparator reports
// neither a regression nor a gain nor a flag.
func runAA(n int, workload string, seed uint64, seconds int, benchPath, dir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
		return 1
	}
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	for i := 0; i < n; i++ {
		for _, side := range []string{"A", "B"} {
			for _, name := range names {
				out := filepath.Join(dir, fmt.Sprintf("%s-%s-%03d.json", side, name, i))
				cmd := osexec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-out", out)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "modcon-e2e: aa run %s %s %d: %v\n", side, name, i, err)
					return 1
				}
			}
		}
	}
	rep, err := compareGlobs(benchPath, filepath.Join(dir, "A-*.json"), filepath.Join(dir, "B-*.json"), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
		return 1
	}
	if rep.gains+rep.regressions+rep.flags > 0 {
		fmt.Println("aa: FAIL (identical binaries must show neither a gain nor a regression)")
		return 1
	}
	fmt.Println("aa: ok")
	return 0
}
