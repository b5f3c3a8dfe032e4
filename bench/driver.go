package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/modular-consensus/modcon/internal/obs"
)

// metricDef names one metric and its unit. Bounds and directions live in
// BENCHMARK.json, which -compare reads.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the library sees, measured untraced.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "op_p50_us", Unit: "us"},
	{Name: "op_p90_us", Unit: "us"},
	{Name: "allocs_per_op", Unit: "count"},
	{Name: "bytes_per_op", Unit: "B"},
	{Name: "max_rss_mb", Unit: "MB"},
	{Name: "setup_s", Unit: "s"},
}

// perLayer lists the traced run's metrics, grouped by layer.
var perLayer = []metricDef{
	{Name: "build.calls_per_op", Unit: "count"},
	{Name: "build.us_per_call", Unit: "us"},
	{Name: "build.allocs_per_call", Unit: "count"},
	{Name: "build.share", Unit: "frac"},
	{Name: "sched.next_per_op", Unit: "count"},
	{Name: "sched.ns_per_next", Unit: "ns"},
	{Name: "sched.share", Unit: "frac"},
	{Name: "object.ns_per_step", Unit: "ns"},
	{Name: "object.share", Unit: "frac"},
	{Name: "engine.sessions_per_op", Unit: "count"},
	{Name: "engine.setup_us", Unit: "us"},
	{Name: "engine.ns_per_step", Unit: "ns"},
	{Name: "engine.share", Unit: "frac"},
	{Name: "harness.ns_per_op", Unit: "ns"},
	{Name: "harness.share", Unit: "frac"},
	{Name: "facade.share", Unit: "frac"},
	{Name: "client.share", Unit: "frac"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac"},
	{Name: "trace.overhead_frac", Unit: "frac"},
	{Name: "trace.residual_frac", Unit: "frac"},
}

// procRuns is how many workload processes one run starts, one after
// another, each setting the workload up and measuring a third of the
// rounds. Metrics are medians across them: a process can land on a slow or
// fast heap layout as a whole, and one process per run would pass that on.
const procRuns = 3

// runDeadline bounds one workload run, set-up processes included.
const runDeadline = 170 * time.Second

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is the full record of one workload run, written by -out and
// read by -compare.
type resultFile struct {
	Manifest   obs.Manifest           `json:"manifest"`
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Trace      bool                   `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Digest     string                 `json:"digest"`
	Metrics    map[string]metricValue `json:"metrics"`
	Ungated    map[string]metricValue `json:"ungated"`
	Samples    int                    `json:"latencySamples"`
	SetupRuns  []float64              `json:"setupRunsS"`
	Rounds     []roundStat            `json:"rounds"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type driveOpts struct {
	workload, traceOut, out string
	seed                    uint64
	seconds                 int
	trace                   bool
}

// roundsFor turns measured seconds into a whole number of rounds per
// workload process, so the ops (and the digest) depend only on the flags,
// never on the host's speed.
func roundsFor(s spec, seconds int) int {
	return max(1, int(math.Round(float64(seconds)/procRuns/s.roundSec)))
}

// childMain is the workload process: it prints one JSON childResult.
func childMain(workload string, seed uint64, seconds int, trace bool, traceOut string, mainStart int64) int {
	sp, ok := lookupSpec(workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "modcon-e2e: unknown workload %q\n", workload)
		return 2
	}
	res, err := runChild(childOpts{
		spec: sp, seed: seed, rounds: roundsFor(sp, seconds),
		trace: trace, traceOut: traceOut, mainStart: mainStart,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
		return 1
	}
	return 0
}

// drive runs one workload (or each in turn) and prints its metrics.
func drive(o driveOpts) int {
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	code := 0
	for _, name := range names {
		sp, ok := lookupSpec(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "modcon-e2e: unknown workload %q\n", name)
			return 2
		}
		res, err := driveOne(sp, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modcon-e2e: %s: %v\n", name, err)
			return 1
		}
		printResult(os.Stdout, res, o.trace)
		if o.out != "" {
			if err := writeJSON(o.out, res); err != nil {
				fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
				return 1
			}
		}
		line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "modcon-e2e:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// driveOne runs the workload in procRuns processes and reduces their
// results to one.
func driveOne(sp spec, o driveOpts) (*resultFile, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	steal0 := stealTicks()
	rounds := roundsFor(sp, o.seconds)
	args := []string{"-child", "-workload", sp.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	var (
		crs    []*childResult
		rssMB  []float64
		setups []float64
	)
	for i := 0; i < procRuns; i++ {
		a := args
		if o.trace && o.traceOut != "" && i == procRuns-1 {
			a = append(a[:len(a):len(a)], "-trace-out", o.traceOut)
		}
		cr, rssKB, err := spawn(ctx, a)
		if err != nil {
			return nil, err
		}
		crs = append(crs, cr)
		rssMB = append(rssMB, float64(rssKB)/1024)
		setups = append(setups, cr.SetupS)
	}
	cr := mergeChildren(crs)
	if sp.cells {
		for _, c := range crs[1:] {
			if len(c.CellBestNs) != len(crs[0].CellBestNs) {
				return nil, fmt.Errorf("workload processes ran %d and %d cells", len(crs[0].CellBestNs), len(c.CellBestNs))
			}
		}
	}

	m := obs.NewManifest("modcon-e2e")
	m.Seed = o.seed
	m.Backend = "sim"
	m.Registers = "atomic"
	if sp.name == "trials-n32-faults" {
		m.Registers, m.FaultPlan = "regular", trialsFaults
	}
	m.Config = map[string]string{
		"workload":    sp.name,
		"seconds":     strconv.Itoa(o.seconds),
		"processes":   strconv.Itoa(procRuns),
		"rounds":      strconv.Itoa(rounds),
		"trace":       strconv.FormatBool(o.trace),
		"gomaxprocs":  strconv.Itoa(procs),
		"workers":     strconv.Itoa(procs),
		"nproc":       strconv.Itoa(runtime.NumCPU()),
		"clockReadNs": strconv.FormatFloat(cr.ClockReadNs, 'f', 2, 64),
		"stealTicks":  strconv.FormatInt(stealTicks()-steal0, 10),
	}
	res := &resultFile{
		Manifest: m, Workload: sp.name, Seed: o.seed, Trace: o.trace,
		Correct: cr.Correct, Attempted: cr.Attempted, Failed: cr.Failed + cr.Violations,
		Digest: cr.Digest, Samples: cr.LatN, SetupRuns: setups,
	}
	for _, c := range crs {
		res.Rounds = append(res.Rounds, c.Rounds...)
	}
	if cr.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(cr.Attempted)
	}
	if cr.FirstProblem != "" {
		fmt.Fprintf(os.Stderr, "modcon-e2e: %s: %s\n", sp.name, cr.FirstProblem)
	}
	res.Ungated = map[string]metricValue{
		"op_p99_us":   {cr.P99us, "us"},
		"op_p999_us":  {cr.P999us, "us"},
		"failed_frac": {res.FailedFrac, "frac"},
	}
	res.Metrics = map[string]metricValue{}
	if o.trace {
		for _, d := range perLayer {
			v := make([]float64, len(crs))
			for i, c := range crs {
				v[i] = c.Layers[d.Name]
			}
			res.Metrics[d.Name] = metricValue{median(v), d.Unit}
		}
		return res, nil
	}
	per := make([]map[string]metricValue, len(crs))
	for i, c := range crs {
		per[i] = endToEndMetrics(c, c.SetupS, rssMB[i])
	}
	for _, d := range endToEnd {
		v := make([]float64, len(per))
		for i, p := range per {
			v[i] = p[d.Name].Value
		}
		res.Metrics[d.Name] = metricValue{median(v), d.Unit}
	}
	if sp.cells {
		opsPerS, p50, p90 := cellTimes(crs)
		res.Metrics["ops_per_s"] = metricValue{opsPerS, "1/s"}
		res.Metrics["op_p50_us"] = metricValue{p50, "us"}
		res.Metrics["op_p90_us"] = metricValue{p90, "us"}
	}
	return res, nil
}

// cellTimes reduces an experiment's cells to its times: each cell's best
// time over every round of every process, the rate of a round run at those
// times, and the percentiles of the cells. A process measures only a round or
// two of an experiment, so the best round of one process repeats poorly;
// a cell lasts milliseconds, and its best of several repeats well.
func cellTimes(crs []*childResult) (opsPerS, p50us, p90us float64) {
	best := append([]int64(nil), crs[0].CellBestNs...)
	for _, c := range crs[1:] {
		for i := range best {
			best[i] = min(best[i], c.CellBestNs[i])
		}
	}
	sorted := make([]float64, len(best))
	total := 0.0
	for i, b := range best {
		sorted[i] = float64(b)
		total += float64(b)
	}
	sort.Float64s(sorted)
	if total > 0 {
		opsPerS = float64(crs[0].Rounds[0].Ops) / (total / 1e9)
	}
	return opsPerS, nearestRank(sorted, 0.50) / 1e3, nearestRank(sorted, 0.90) / 1e3
}

// mergeChildren sums the processes' counts and takes the medians of their
// tail latencies. Every process runs the same rounds, so their digests must
// agree; a mismatch makes the run incorrect.
func mergeChildren(crs []*childResult) *childResult {
	m := &childResult{Correct: true, Digest: crs[0].Digest}
	var p99, p999, clock []float64
	for _, c := range crs {
		m.Attempted += c.Attempted
		m.Failed += c.Failed
		m.Violations += c.Violations
		m.LatN += c.LatN
		m.Correct = m.Correct && c.Correct
		if m.FirstProblem == "" {
			m.FirstProblem = c.FirstProblem
		}
		if c.Digest != m.Digest {
			m.Correct = false
			if m.FirstProblem == "" {
				m.FirstProblem = fmt.Sprintf("workload processes disagree on the digest: %s vs %s", m.Digest, c.Digest)
			}
		}
		p99, p999, clock = append(p99, c.P99us), append(p999, c.P999us), append(clock, c.ClockReadNs)
	}
	m.P99us, m.P999us, m.ClockReadNs = median(p99), median(p999), median(clock)
	return m
}

// endToEndMetrics reduces one process's rounds to the end-to-end metrics. Times
// are the best round's: interference from the host only ever slows a round,
// and on a shared host it comes in stretches of seconds, so the best of many
// short rounds repeats across runs where their median does not. Counts are
// the median round's.
func endToEndMetrics(cr *childResult, setupS, rssMB float64) map[string]metricValue {
	col := func(f func(roundStat) float64) []float64 {
		v := make([]float64, len(cr.Rounds))
		for i, r := range cr.Rounds {
			v[i] = f(r)
		}
		return v
	}
	vals := map[string]float64{
		"ops_per_s":     slices.Max(col(func(r roundStat) float64 { return float64(r.Ops) / r.WallS })),
		"op_p50_us":     slices.Min(col(func(r roundStat) float64 { return r.P50us })),
		"op_p90_us":     slices.Min(col(func(r roundStat) float64 { return r.P90us })),
		"allocs_per_op": median(col(func(r roundStat) float64 { return r.Allocs })),
		"bytes_per_op":  median(col(func(r roundStat) float64 { return r.Bytes })),
		"max_rss_mb":    rssMB,
		"setup_s":       setupS,
	}
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		out[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}

// spawn runs the benchmark binary as a workload process and decodes its
// result; it also returns the process's peak resident set in KiB.
func spawn(ctx context.Context, args []string) (*childResult, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := osexec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, 0, fmt.Errorf("workload process: %w", ctx.Err())
		}
		return nil, 0, fmt.Errorf("workload process: %w", err)
	}
	var cr childResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		return nil, 0, fmt.Errorf("workload process output: %w", err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return &cr, rss, nil
}

// stealTicks reads the host's total steal time from /proc/stat (0 where
// unavailable), so a noisy host shows in the artifact.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// belowResolution reports whether a per-call time metric is under twice the
// cost of a pair of clock reads, where the calibration dominates it.
func belowResolution(name string, v, clockReadNs float64) bool {
	ns := v
	switch {
	case strings.HasSuffix(name, "_us") || strings.HasSuffix(name, ".us_per_call"):
		ns = v * 1e3
	case strings.Contains(name, ".ns_per_"):
	default:
		return false
	}
	return ns < 2*2*clockReadNs
}

// observable reports whether a per-layer metric is measured on a workload
// whose inner calls the trace cannot see (exp-e6): GC and the trace's own
// cost are; the layer split is not, and those metrics read 0 there.
func observable(name string) bool {
	return name == "runtime.gc_cpu_frac" || strings.HasPrefix(name, "trace.")
}

// printResult prints every metric by name with its unit.
func printResult(w *os.File, r *resultFile, trace bool) {
	fmt.Fprintf(w, "workload %s  seed %d  rounds %s  trace %v  revision %s  digest %s\n",
		r.Workload, r.Seed, r.Manifest.Config["rounds"], trace, r.Manifest.GitRevision, r.Digest)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	clock, _ := strconv.ParseFloat(r.Manifest.Config["clockReadNs"], 64)
	sp, _ := lookupSpec(r.Workload)
	for _, d := range defs {
		v := r.Metrics[d.Name].Value
		if trace && sp.cells && !observable(d.Name) {
			fmt.Fprintf(w, "  %-24s %16s %s\n", d.Name, "not observed", d.Unit)
			continue
		}
		if trace && belowResolution(d.Name, v, clock) {
			fmt.Fprintf(w, "  %-24s %16s %s\n", d.Name, "below-resolution", d.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-24s %16.4f %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "  %-24s %16.4f us (n=%d, not gated)\n", "op_p99_us", r.Ungated["op_p99_us"].Value, r.Samples)
	fmt.Fprintf(w, "  %-24s %16.4f us (n=%d, not gated)\n", "op_p999_us", r.Ungated["op_p999_us"].Value, r.Samples)
	fmt.Fprintf(w, "  %-24s %16.6f frac (%d failed of %d)\n", "failed_frac", r.FailedFrac, r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %-24s %16s ticks\n", "host.steal", r.Manifest.Config["stealTicks"])
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}
