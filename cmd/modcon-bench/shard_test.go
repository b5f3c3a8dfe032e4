package main

// Shard-merge correctness: a merged partition of the seed space must equal
// the single-shard run exactly — same histograms, tally, and digest — for
// any shard count, and the merge must reject partitions that do not tile the
// space. The fuzz target drives the merge over random partitions and input
// orders of synthetic aggregates, plus associativity of the underlying
// histogram merge.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
)

// reportKey flattens the determinism-relevant fields of a report — the
// digest plus the exact JSON of both histograms and the tally — so tests
// compare whole aggregates at once.
func reportKey(t testing.TB, r *shardReport) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Steps   *obs.Hist
		Work    *obs.Hist
		Decided int
		Digest  string
		Shard   shardSlice
	}{r.Steps, r.Work, r.Decided, r.Digest, r.Shard})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestShardSpanTiles(t *testing.T) {
	for _, tc := range []struct{ of, trials int }{{1, 7}, {3, 7}, {4, 4}, {5, 17}, {8, 1000}} {
		at := 0
		for i := 0; i < tc.of; i++ {
			lo, hi := shardSpan(i, tc.of, tc.trials)
			if lo != at || hi < lo {
				t.Fatalf("shardSpan(%d,%d,%d) = [%d,%d), want a tile starting at %d",
					i, tc.of, tc.trials, lo, hi, at)
			}
			at = hi
		}
		if at != tc.trials {
			t.Fatalf("of=%d trials=%d: spans cover [0,%d)", tc.of, tc.trials, at)
		}
	}
}

// TestShardMergeMatchesSingleRun is the end-to-end contract on the real
// workload: run the consensus sweep sharded M ways in-process, merge, and
// compare against the unsharded run — every M must agree exactly.
func TestShardMergeMatchesSingleRun(t *testing.T) {
	const trials = 48
	const seed = 9
	job := sweepJob{Trials: trials, Seed: seed, Workers: 2, Registers: register.Atomic}
	full, err := job.slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the single shard through the same merge the fan-out uses.
	base, err := mergeShardReports([]*shardReport{full})
	if err != nil {
		t.Fatal(err)
	}
	want := reportKey(t, base)
	job.Workers = 1
	for _, m := range []int{2, 3, 5} {
		reports := make([]*shardReport, m)
		for i := 0; i < m; i++ {
			if reports[i], err = job.slice(i, m); err != nil {
				t.Fatal(err)
			}
		}
		// Feed the merge out of order; it must not care.
		reports[0], reports[m-1] = reports[m-1], reports[0]
		merged, err := mergeShardReports(reports)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportKey(t, merged); got != want {
			t.Errorf("shards=%d: merged aggregates diverged from the single-shard run\n got %s\nwant %s", m, got, want)
		}
	}
}

func TestShardMergeRejectsBadTilings(t *testing.T) {
	mk := func(lo, hi, trials int, seed uint64) *shardReport {
		return &shardReport{
			Workload: "consensus-sweep", N: scalingN, Trials: trials, Seed: seed,
			Shard: shardSlice{Lo: lo, Hi: hi},
			Steps: &obs.Hist{}, Work: &obs.Hist{},
		}
	}
	cases := []struct {
		name    string
		reports []*shardReport
	}{
		{"empty", nil},
		{"gap", []*shardReport{mk(0, 4, 10, 1), mk(6, 10, 10, 1)}},
		{"overlap", []*shardReport{mk(0, 6, 10, 1), mk(4, 10, 10, 1)}},
		{"short", []*shardReport{mk(0, 8, 10, 1)}},
		{"mixed-seed", []*shardReport{mk(0, 5, 10, 1), mk(5, 10, 10, 2)}},
		{"mixed-trials", []*shardReport{mk(0, 5, 10, 1), mk(5, 12, 12, 1)}},
		{"mixed-registers", func() []*shardReport {
			a, b := mk(0, 5, 10, 1), mk(5, 10, 10, 1)
			a.Registers = "atomic"
			b.Registers = "regular"
			return []*shardReport{a, b}
		}()},
	}
	for _, tc := range cases {
		if _, err := mergeShardReports(tc.reports); err == nil {
			t.Errorf("%s: merge accepted a bad partition", tc.name)
		}
	}
}

// editedShard saves a synthetic shard artifact whose steps histogram edit
// has rewritten, and returns its path.
func editedShard(t *testing.T, edit func(steps map[string]any)) string {
	t.Helper()
	b, err := json.Marshal(synthShard(t, 0, 10, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	edit(raw["steps"].(map[string]any))
	if b, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeShardsRejectsForeignBucket: a saved shard artifact whose steps
// histogram lists a bucket outside obs.Hist's layout fails -merge-shards
// with an error naming the file, instead of crashing the merge.
func TestMergeShardsRejectsForeignBucket(t *testing.T) {
	path := editedShard(t, func(steps map[string]any) {
		steps["buckets"] = append(steps["buckets"].([]any), map[string]any{"lo": -1, "hi": -1, "count": 1})
	})
	err := runSweepMode(sweepFlags{MergeShards: path})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a bucket of the layout") {
		t.Fatalf("-merge-shards of a foreign bucket: err = %v, want a bucket-layout error naming %s", err, path)
	}
}

// TestMergeShardsRejectsInconsistentSummary: a saved shard artifact whose
// steps histogram claims an n and a min its buckets do not hold (n 999 and
// min -7 over 10 observations) fails -merge-shards with an error naming the
// file, instead of merging into an artifact that reports them.
func TestMergeShardsRejectsInconsistentSummary(t *testing.T) {
	path := editedShard(t, func(steps map[string]any) {
		steps["n"], steps["min"] = 999, -7
	})
	err := runSweepMode(sweepFlags{MergeShards: path})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "hold 10 observations, not n=999") {
		t.Fatalf("-merge-shards of an edited summary: err = %v, want a summary error naming %s", err, path)
	}
}

// synthShard builds a shard artifact over [lo, hi) from synthetic per-trial
// observations derived purely from (seed, index) — the same shape the real
// sweep produces, cheap enough to fuzz.
func synthShard(t testing.TB, lo, hi, trials int, seed uint64) *shardReport {
	t.Helper()
	var steps, work obs.Hist
	decided := 0
	for i := lo; i < hi; i++ {
		v := harness.TrialSeed(seed, i)
		steps.AddInt(int(v % 10_000))
		work.AddInt(int(v >> 32 % 1_000))
		if v&1 == 0 {
			decided++
		}
	}
	digest, err := scalingDigest(&steps, &work, decided)
	if err != nil {
		t.Fatal(err)
	}
	return &shardReport{
		Workload: "consensus-sweep", N: scalingN, Trials: trials, Seed: seed,
		Shard: shardSlice{Lo: lo, Hi: hi},
		Steps: &steps, Work: &work, Decided: decided, Digest: digest,
	}
}

// FuzzShardMerge fuzzes the merge over random partitions of a fixed seed
// space, fed in random rotations: the merged aggregates must always equal
// the whole-space artifact (commutativity over any tiling), and merging the
// histograms pairwise left-to-right must equal merging right-to-left
// (associativity of obs.Hist.Merge).
func FuzzShardMerge(f *testing.F) {
	f.Add(uint16(64), uint8(4), uint64(1), uint8(1))
	f.Add(uint16(1), uint8(1), uint64(42), uint8(0))
	f.Add(uint16(500), uint8(7), uint64(99), uint8(5))
	f.Fuzz(func(t *testing.T, trials16 uint16, shards8 uint8, seed uint64, rot8 uint8) {
		trials := int(trials16)%512 + 1
		m := int(shards8)%8 + 1
		base, err := mergeShardReports([]*shardReport{synthShard(t, 0, trials, trials, seed)})
		if err != nil {
			t.Fatal(err)
		}
		want := reportKey(t, base)

		reports := make([]*shardReport, 0, m)
		for i := 0; i < m; i++ {
			lo, hi := shardSpan(i, m, trials)
			reports = append(reports, synthShard(t, lo, hi, trials, seed))
		}
		rot := int(rot8) % m
		rotated := append(append([]*shardReport(nil), reports[rot:]...), reports[:rot]...)
		merged, err := mergeShardReports(rotated)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportKey(t, merged); got != want {
			t.Fatalf("trials=%d shards=%d rot=%d: merged aggregates diverged from the whole-space artifact",
				trials, m, rot)
		}

		// Associativity: fold the shard step-histograms left-to-right and
		// right-to-left; obs.Hist.Merge must not care about grouping.
		var ltr, rtl obs.Hist
		for i := 0; i < m; i++ {
			ltr.Merge(reports[i].Steps)
			rtl.Merge(reports[m-1-i].Steps)
		}
		lb, _ := json.Marshal(&ltr)
		rb, _ := json.Marshal(&rtl)
		if string(lb) != string(rb) {
			t.Fatalf("hist merge is grouping-sensitive:\n ltr %s\n rtl %s", lb, rb)
		}
	})
}

// TestShardRegistersAttributionAndMerge: a shard run on regular registers
// stamps the model into its artifact and manifest, merging same-model
// shards preserves the attribution, and the regular-model aggregates
// genuinely differ from atomic (the stale-read resolution changes
// schedules' outcomes, so identical digests would mean the flag was
// dropped on the floor).
func TestShardRegistersAttributionAndMerge(t *testing.T) {
	const trials = 32
	const seed = 9
	job := sweepJob{Trials: trials, Seed: seed, Workers: 2, Registers: register.Atomic}
	atomic, err := job.slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	job.Registers = register.Regular
	regular, err := job.slice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.Registers != "atomic" || regular.Registers != "regular" {
		t.Fatalf("attribution: atomic=%q regular=%q", atomic.Registers, regular.Registers)
	}
	if regular.Manifest.Registers != "regular" || regular.Manifest.Config["registers"] != "regular" {
		t.Fatalf("manifest attribution: %q / %q", regular.Manifest.Registers, regular.Manifest.Config["registers"])
	}
	if atomic.Digest == regular.Digest {
		t.Fatal("atomic and regular runs produced identical digests — the register model is not reaching the sweep")
	}

	// Sharded regular-model runs must merge to the unsharded regular run.
	base, err := mergeShardReports([]*shardReport{regular})
	if err != nil {
		t.Fatal(err)
	}
	if base.Registers != "regular" {
		t.Fatalf("merged attribution %q", base.Registers)
	}
	parts := make([]*shardReport, 3)
	job.Workers = 1
	for i := range parts {
		if parts[i], err = job.slice(i, 3); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := mergeShardReports(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportKey(t, merged), reportKey(t, base); got != want {
		t.Errorf("regular-model shard merge diverged from the single-shard run\n got %s\nwant %s", got, want)
	}
}

// topKeys returns the top-level keys of v's JSON object, in encoding order.
func topKeys(t testing.TB, v interface{}) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestShardReportKeys pins the artifact schema: the plain sweep's slice and
// merged reports carry no trace or metrics key, so their bytes are those of
// the plain artifact, and a workload report puts its trace slice (and, once
// merged, the served metrics) just before the digest.
func TestShardReportKeys(t *testing.T) {
	plain := []string{"manifest", "workload", "n", "trials", "seed", "registers", "shard", "steps", "work", "decided", "digest"}
	traced := []string{"manifest", "workload", "n", "trials", "seed", "registers", "shard", "steps", "work", "decided", "trace", "digest"}
	served := []string{"manifest", "workload", "n", "trials", "seed", "registers", "shard", "steps", "work", "decided", "trace", "metrics", "digest"}
	const trials, seed = 12, 3
	plainJob := sweepJob{Trials: trials, Seed: seed, Workers: 2, Registers: register.Atomic}
	wlJob := workloadJob(t, "poisson:rate=5000", trials, seed)
	for _, tc := range []struct {
		name  string
		job   sweepJob
		merge bool
		want  []string
	}{
		{"plain slice", plainJob, false, plain},
		{"plain merge", plainJob, true, plain},
		{"workload slice", wlJob, false, traced},
		{"workload merge", wlJob, true, served},
	} {
		r, err := tc.job.slice(0, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.merge {
			rest, err := tc.job.slice(1, 2)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if r, err = mergeShardReports([]*shardReport{r, rest}); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got := strings.Join(topKeys(t, r), ","); got != strings.Join(tc.want, ",") {
			t.Errorf("%s: keys %s, want %s", tc.name, got, strings.Join(tc.want, ","))
		}
	}
}

// TestShardMergeNormalizesLegacyRegisters: artifacts predating the
// registers field (empty string) merge as atomic rather than erroring.
func TestShardMergeNormalizesLegacyRegisters(t *testing.T) {
	legacy := synthShard(t, 0, 5, 10, 1) // Registers left ""
	tagged := synthShard(t, 5, 10, 10, 1)
	tagged.Registers = "atomic"
	merged, err := mergeShardReports([]*shardReport{legacy, tagged})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Registers != "atomic" {
		t.Fatalf("legacy merge attribution %q, want atomic", merged.Registers)
	}
}
