package main

// Workload-mode correctness: merged slice artifacts must equal the
// unsharded run exactly (histograms, tally, digest, the merged trace's
// bytes and the metrics served from it), a recorded trace must replay to
// identical demands, saved workload shards must merge through
// -merge-shards like fanned-out ones (and not at all without their trace
// slices), and the flag conflicts must error cleanly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/workload"
)

// workloadJob is the sweep of spec over trials at seed, on 2 workers.
func workloadJob(t testing.TB, spec string, trials int, seed uint64) sweepJob {
	t.Helper()
	parsed, err := workload.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sweepJob{Spec: parsed, Trials: trials, Seed: seed, Workers: 2, Registers: register.Atomic}
}

// workloadKey flattens a report's determinism-relevant body for comparison.
func workloadKey(t testing.TB, r *shardReport) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Workload string
		Trials   int
		Seed     uint64
		Steps    interface{}
		Work     interface{}
		Decided  int
		Trace    string
		Metrics  interface{}
		Digest   string
	}{r.Workload, r.Trials, r.Seed, r.Steps, r.Work, r.Decided, r.Trace, r.Metrics, r.Digest})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkloadSliceMergeMatchesSingleRun: in-process slices of a workload
// run merge — aggregates, trace and metrics alike — to exactly the
// unsharded run.
func TestWorkloadSliceMergeMatchesSingleRun(t *testing.T) {
	const trials, seed = 48, 9
	job := workloadJob(t, "poisson:rate=100000", trials, seed)
	full, err := job.slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := mergeShardReports([]*shardReport{full})
	if err != nil {
		t.Fatal(err)
	}
	if base.Metrics == nil || base.Metrics.Trials != trials {
		t.Fatalf("merged report serves no metrics: %+v", base.Metrics)
	}
	for _, m := range []int{2, 3, 5} {
		slices := make([]*shardReport, m)
		for i := range slices {
			if slices[i], err = job.slice(i, m); err != nil {
				t.Fatalf("slice %d/%d: %v", i, m, err)
			}
			if slices[i].Trace == "" || slices[i].Metrics != nil {
				t.Fatalf("slice %d/%d: want a trace slice and no metrics", i, m)
			}
		}
		merged, err := mergeShardReports(slices)
		if err != nil {
			t.Fatalf("merge %d slices: %v", m, err)
		}
		if workloadKey(t, merged) != workloadKey(t, base) {
			t.Fatalf("M=%d: merged report diverged from the unsharded run", m)
		}
	}
}

// TestWorkloadSliceRecordReplay: a recorded slice's trace verifies against
// a re-execution of the same slice at a different worker count.
func TestWorkloadSliceRecordReplay(t *testing.T) {
	const trials, seed = 32, 4
	job := workloadJob(t, "burst:rate=200000,on=1ms,off=3ms", trials, seed)
	first, err := job.slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	job.Workers = 4
	second, err := job.slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace != second.Trace {
		t.Fatal("trace differs across worker counts")
	}
	if err := mustDecodeTrace(t, first.Trace).Verify(mustDecodeTrace(t, second.Trace).Demands()); err != nil {
		t.Fatalf("replayed demands diverged: %v", err)
	}
}

func mustDecodeTrace(t testing.TB, text string) *workload.Trace {
	t.Helper()
	tr, err := workload.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestWorkloadClosedCohort: closed specs run unsharded (issue times come
// from the cohort model) and refuse to shard.
func TestWorkloadClosedCohort(t *testing.T) {
	job := workloadJob(t, "closed:clients=4,think=1ms", 24, 2)
	report, err := job.slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if report, err = mergeShardReports([]*shardReport{report}); err != nil {
		t.Fatal(err)
	}
	if report.Metrics.OfferedPerSec != 0 || report.Metrics.AchievedPerSec <= 0 {
		t.Fatalf("closed metrics off: %+v", report.Metrics)
	}
	if _, err := job.slice(0, 2); err == nil {
		t.Fatal("closed workload sharded without error")
	}
}

// runToFile runs modcon-bench with args and saves its stdout in dir/name.
func runToFile(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	out, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(out), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// bodyOf decodes a report and drops its manifest, like `jq del(.manifest)`.
func bodyOf(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	delete(body, "manifest")
	out, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestMergeShardsCarriesWorkload: saved -shard-run artifacts of a workload
// run merge through -merge-shards to the unsharded report, trace and
// metrics included.
func TestMergeShardsCarriesWorkload(t *testing.T) {
	dir := t.TempDir()
	sweep := []string{"-workload", "poisson:rate=5000", "-trials", "20", "-seed", "2"}
	whole := runToFile(t, dir, "whole.json", sweep...)
	a := runToFile(t, dir, "a.json", append([]string{"-shard-run", "0/2"}, sweep...)...)
	b := runToFile(t, dir, "b.json", append([]string{"-shard-run", "1/2"}, sweep...)...)
	merged := runToFile(t, dir, "merged.json", "-merge-shards", b+","+a)
	if got, want := bodyOf(t, merged), bodyOf(t, whole); got != want {
		t.Fatalf("merged workload shards diverged from the unsharded run\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(bodyOf(t, merged), `"metrics"`) {
		t.Fatal("merged report has no metrics")
	}
}

// TestShardMergeRejectsMissingTraces: every shard of a workload run must
// bring its trace slice. A merge missing one slice, or all of them, is an
// error, never a report without the complete trace or its metrics.
func TestShardMergeRejectsMissingTraces(t *testing.T) {
	job := workloadJob(t, "poisson:rate=5000", 20, 2)
	var slices [2]*shardReport
	for i := range slices {
		var err error
		if slices[i], err = job.slice(i, len(slices)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mergeShardReports(slices[:]); err != nil {
		t.Fatalf("complete slices: %v", err)
	}
	for _, strip := range [][]int{{1}, {0, 1}} {
		reports := make([]*shardReport, len(slices))
		for i, s := range slices {
			copied := *s
			reports[i] = &copied
		}
		for _, i := range strip {
			reports[i].Trace = ""
		}
		if _, err := mergeShardReports(reports); err == nil {
			t.Errorf("traces stripped from shards %v: merge accepted", strip)
		}
	}
}

// TestMergeShardsTraceOut: -trace-out on -merge-shards saves the merged
// recording byte for byte as the unsharded run saves it, and a merge of
// plain sweep artifacts, which carry no trace, refuses the flag.
func TestMergeShardsTraceOut(t *testing.T) {
	dir := t.TempDir()
	sweep := []string{"-workload", "burst:rate=40000,on=2ms,off=2ms", "-trials", "24", "-seed", "3"}
	whole := filepath.Join(dir, "whole.trace")
	runToFile(t, dir, "whole.json", append(append([]string(nil), sweep...), "-trace-out", whole)...)
	var parts []string
	for i := 0; i < 3; i++ {
		args := append([]string{"-shard-run", fmt.Sprintf("%d/3", i)}, sweep...)
		parts = append(parts, runToFile(t, dir, fmt.Sprintf("shard%d.json", i), args...))
	}
	merged := filepath.Join(dir, "merged.trace")
	runToFile(t, dir, "merged.json", "-merge-shards", strings.Join(parts, ","), "-trace-out", merged)
	want, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("merged trace differs from the unsharded recording\n got %q\nwant %q", got, want)
	}

	plain := runToFile(t, dir, "plain.json", "-shard-run", "0/1", "-trials", "8", "-seed", "3")
	stray := filepath.Join(dir, "plain.trace")
	_, err = capture(t, func() error { return run([]string{"-merge-shards", plain, "-trace-out", stray}) })
	if err == nil || !strings.Contains(err.Error(), "-trace-out") {
		t.Fatalf("-trace-out on plain artifacts: err = %v, want an error naming -trace-out", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("-trace-out on plain artifacts left a file: %v", err)
	}
}

// TestWorkloadModeFlagConflicts pins the mode-routing errors: every
// conflicting pair of seed-space flags is rejected, naming both flags, and
// a replay rejects an explicit -seed or -trials its trace contradicts.
func TestWorkloadModeFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.trace")
	runToFile(t, dir, "rec.json", "-workload", "poisson:rate=5000", "-trials", "16", "-seed", "5", "-trace-out", trace)
	shard := runToFile(t, dir, "shard.json", "-shard-run", "0/1", "-trials", "16", "-seed", "5")

	// The same trace and artifact are accepted when nothing conflicts.
	for _, args := range [][]string{
		{"-trace-in", trace, "-seed", "5", "-trials", "16"},
		{"-merge-shards", shard},
	} {
		if _, err := capture(t, func() error { return run(args) }); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	for _, tc := range []struct {
		name  string
		args  []string
		flags []string // flags the error must name
	}{
		{"trace-in with workload", []string{"-trace-in", trace, "-workload", "poisson:rate=1"}, []string{"-trace-in", "-workload"}},
		{"trace-in with shards", []string{"-trace-in", trace, "-shards", "2"}, []string{"-trace-in", "-shards"}},
		{"trace-in with default seed", []string{"-trace-in", trace, "-seed", "1"}, []string{"-seed"}},
		{"trace-in with other trials", []string{"-trace-in", trace, "-trials", "99"}, []string{"-trials"}},
		{"workload with merge-shards", []string{"-workload", "poisson:rate=1", "-merge-shards", shard}, []string{"-workload", "-merge-shards"}},
		{"shard-run with shards", []string{"-shard-run", "0/2", "-shards", "2", "-trials", "8"}, []string{"-shard-run", "-shards"}},
		{"shard-run with merge-shards", []string{"-shard-run", "0/2", "-merge-shards", shard, "-trials", "8"}, []string{"-shard-run", "-merge-shards"}},
		{"trace-out without workload", []string{"-shard-run", "0/2", "-trials", "8", "-trace-out", filepath.Join(dir, "x.trace")}, []string{"-trace-out"}},
		{"bad spec", []string{"-workload", "warble:rate=1", "-trials", "1"}, []string{"-workload"}},
		{"bad shard ref", []string{"-workload", "poisson:rate=1", "-shard-run", "9/4", "-trials", "1"}, []string{"-shard-run"}},
		{"bad shard ref, trailing input", []string{"-workload", "poisson:rate=1", "-shard-run", "1/4x", "-trials", "1"}, []string{"-shard-run"}},
		{"bad shard ref, three parts", []string{"-workload", "poisson:rate=1", "-shard-run", "1/4/9", "-trials", "1"}, []string{"-shard-run"}},
	} {
		_, err := capture(t, func() error { return run(tc.args) })
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, flag := range tc.flags {
			if !strings.Contains(err.Error(), flag) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, flag)
			}
		}
	}
}
