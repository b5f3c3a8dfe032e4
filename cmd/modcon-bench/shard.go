package main

// Sharded consensus sweep: split one deterministic seed space across M
// shards, run each shard as its own modcon-bench subprocess, and merge the
// per-shard artifacts into a report byte-identical (manifest aside) to
// running the whole space in one process. A workload (-workload, see
// workload.go) rides on the same sweep: each shard also records its slice
// of the workload trace, and the merge reassembles the trace exactly and
// serves it for the saturation metrics.
//
// The contract rests on two exact mechanisms. Trial i's work is a pure
// function of (root seed, i) — harness.Sweep.Offset lets a shard run the
// contiguous global slice [lo, hi) computing exactly what the unsharded
// sweep would — and obs.Hist holds only integer state with an exact
// commutative merge, so reassembling shard histograms loses nothing. The
// merge re-derives the digest from the merged aggregates; CI compares a
// 1-shard run against a merged 4-shard run, and against a -merge-shards of
// saved -shard-run artifacts, with `jq del(.manifest)` + cmp.
//
//	modcon-bench -shards 4 -trials 2000 -seed 1   # fan out, merge, print
//	modcon-bench -shard-run 2/4 -trials 2000      # internal: one shard
//	modcon-bench -merge-shards a.json,b.json      # merge saved artifacts

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/workload"
)

// shardSlice identifies one shard's contiguous slice of the seed space.
type shardSlice struct {
	// Index and Of locate the shard (0 ≤ Index < Of); a merged report is
	// normalized to 0/1 so it is independent of how many shards produced it.
	Index int `json:"index"`
	Of    int `json:"of"`
	// Lo and Hi are the global trial range [Lo, Hi) the shard ran.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// shardReport is the per-shard (and, normalized, the merged) artifact: the
// aggregate histograms and decision tally of the consensus sweep over the
// shard's slice of the seed space, plus the workload recording when the
// sweep ran under one.
type shardReport struct {
	Manifest obs.Manifest `json:"manifest"`
	// Workload is "consensus-sweep" for the plain sweep, or the workload
	// spec's canonical text; all shards of a run share it.
	Workload string `json:"workload"`
	N        int    `json:"n"`
	// Trials is the size of the FULL seed space, which every shard of a run
	// shares; the shard's own share is Shard.Hi - Shard.Lo.
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
	// Registers is the register model the shard's sweep ran under; shards of
	// one run must agree on it, and the merge refuses mixed-model inputs.
	// Empty (an artifact predating the field) normalizes to atomic.
	Registers string     `json:"registers"`
	Shard     shardSlice `json:"shard"`
	Steps     *obs.Hist  `json:"steps"`
	Work      *obs.Hist  `json:"work"`
	// Decided counts trials where all n processes decided.
	Decided int `json:"decided"`
	// Trace is the executed workload in the tracev1 text encoding — a slice
	// trace for shard artifacts, the complete recording after a merge.
	// Empty for the plain sweep.
	Trace string `json:"trace,omitempty"`
	// Metrics is the virtual-time saturation summary (offered vs achieved
	// rate, latency percentiles), derived by serving the complete trace;
	// omitted on shard slices, which cannot be served alone.
	Metrics *workload.Metrics `json:"metrics,omitempty"`
	// Digest is scalingDigest over (Steps, Work, Decided) — the same hash the
	// -bench-scaling determinism gate uses, recomputed after every merge.
	Digest string `json:"digest"`
}

// stamp sets the report's manifest from its own run parameters plus the
// producing mode's config echo.
func (r *shardReport) stamp(config map[string]string) {
	m := obs.NewManifest("modcon-bench")
	m.Seed = r.Seed
	m.Backend = "sim"
	m.Registers = r.Registers
	config["trials"] = fmt.Sprint(r.Trials)
	config["seed"] = fmt.Sprint(r.Seed)
	config["registers"] = r.Registers
	if r.Trace != "" {
		m.Workload = r.Workload
		config["workload"] = r.Workload
	}
	m.Config = config
	r.Manifest = m
}

// sweepJob is one consensus sweep over a seed space, optionally under a
// workload.
type sweepJob struct {
	// Spec is the workload the sweep's trials serve; nil for the plain
	// sweep.
	Spec *workload.Spec
	// Trials is the FULL seed space, whichever slice of it runs.
	Trials    int
	Seed      uint64
	Workers   int
	Registers register.Semantics
}

// shardSpan computes shard index's slice of [0, trials): the canonical
// near-even contiguous partition, i*T/M to (i+1)*T/M.
func shardSpan(index, of, trials int) (lo, hi int) {
	return index * trials / of, (index + 1) * trials / of
}

// slice runs the consensus sweep over shard index's global trials [lo, hi)
// and returns the shard artifact, with the slice of the workload trace
// inline when the job has a workload. Offset keeps every trial's global
// index and seed, so the shard computes exactly the trials the unsharded
// sweep would; index 0 of 1 is the unsharded run.
func (j sweepJob) slice(index, of int) (*shardReport, error) {
	if j.Spec != nil && !j.Spec.Open() && of > 1 {
		return nil, fmt.Errorf("-workload: closed (cohort) workloads are inherently sequential and cannot shard")
	}
	lo, hi := shardSpan(index, of, j.Trials)
	var tally sweepTally
	if j.Spec != nil {
		tally.demands = make([]int64, hi-lo)
	}
	if err := tally.run(harness.Sweep{Trials: hi - lo, Offset: lo, Workers: j.Workers, Seed: j.Seed}, j.Registers); err != nil {
		return nil, err
	}
	digest, err := scalingDigest(&tally.steps, &tally.work, tally.decided)
	if err != nil {
		return nil, err
	}
	r := &shardReport{
		Workload:  "consensus-sweep",
		N:         scalingN,
		Trials:    j.Trials,
		Seed:      j.Seed,
		Registers: j.Registers.String(),
		Shard:     shardSlice{Index: index, Of: of, Lo: lo, Hi: hi},
		Steps:     &tally.steps,
		Work:      &tally.work,
		Decided:   tally.decided,
		Digest:    digest,
	}
	if j.Spec != nil {
		r.Workload = j.Spec.String()
		if r.Trace, err = j.recordTrace(lo, hi, tally.demands); err != nil {
			return nil, err
		}
	}
	r.stamp(map[string]string{
		"shard":   fmt.Sprintf("%d/%d", index, of),
		"workers": fmt.Sprint(j.Workers),
	})
	return r, nil
}

// fanout is the -shards M mode: spawn one -shard-run subprocess per shard
// (concurrently; each inherits the -workers cap), collect their JSON
// artifacts, and merge them. M = 1 degenerates to the merge of a single
// full-space shard, so the output schema — and, by the determinism
// contract, every byte outside the manifest — is independent of M.
func (j sweepJob) fanout(shards int) (*shardReport, error) {
	if shards < 1 {
		return nil, fmt.Errorf("-shards: want ≥ 1, got %d", shards)
	}
	if j.Trials < 1 {
		return nil, fmt.Errorf("-shards: want -trials ≥ 1, got %d", j.Trials)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shards: locate own binary: %w", err)
	}
	type slot struct {
		report *shardReport
		err    error
	}
	slots := make([]slot, shards)
	done := make(chan int, shards)
	for i := 0; i < shards; i++ {
		go func(i int) {
			defer func() { done <- i }()
			args := []string{
				"-shard-run", fmt.Sprintf("%d/%d", i, shards),
				"-trials", fmt.Sprint(j.Trials),
				"-seed", fmt.Sprint(j.Seed),
				"-workers", fmt.Sprint(j.Workers),
				"-registers", j.Registers.String(),
			}
			if j.Spec != nil {
				args = append(args, "-workload", j.Spec.String())
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				slots[i].err = fmt.Errorf("shard %d/%d: %w", i, shards, err)
				return
			}
			var r shardReport
			if err := json.Unmarshal(out, &r); err != nil {
				slots[i].err = fmt.Errorf("shard %d/%d: bad artifact: %w", i, shards, err)
				return
			}
			slots[i].report = &r
		}(i)
	}
	for range slots {
		<-done
	}
	reports := make([]*shardReport, 0, shards)
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		reports = append(reports, slots[i].report)
		fmt.Fprintf(os.Stderr, "shards: %d/%d [%d,%d) decided=%d %s\n",
			i, shards, slots[i].report.Shard.Lo, slots[i].report.Shard.Hi,
			slots[i].report.Decided, slots[i].report.Digest[:16])
	}
	return mergeShardReports(reports)
}

// mergeShardReports folds shard artifacts into one normalized report. It
// demands a complete, non-overlapping tiling of [0, Trials) over a single
// (workload, n, trials, seed, registers) run; input order is irrelevant
// because the shards are sorted by Lo and obs.Hist.Merge is exact and
// commutative. The shards of a workload run must each carry their trace
// slice; the slices merge into the complete recording, which the report
// then serves for its metrics.
func mergeShardReports(reports []*shardReport) (*shardReport, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("merge-shards: no shard reports")
	}
	sorted := append([]*shardReport(nil), reports...)
	// Order by (Lo, Hi): an empty shard — M > trials leaves some slices
	// empty — shares its Lo with the neighbor that actually starts there and
	// must sort before it for the tiling walk below.
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].Shard, sorted[j].Shard
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Hi < b.Hi
	})

	first := sorted[0]
	// Artifacts predating the registers field carry ""; normalize to atomic
	// (what those runs actually were) before the consistency check.
	regsOf := func(r *shardReport) string {
		if r.Registers == "" {
			return register.Atomic.String()
		}
		return r.Registers
	}
	var steps, work obs.Hist
	var traces []*workload.Trace
	decided := 0
	at := 0
	for _, r := range sorted {
		if r.Workload != first.Workload || r.N != first.N || r.Trials != first.Trials || r.Seed != first.Seed {
			return nil, fmt.Errorf("merge-shards: shard %d/%d is from a different run (workload/n/trials/seed mismatch)",
				r.Shard.Index, r.Shard.Of)
		}
		if regsOf(r) != regsOf(first) {
			return nil, fmt.Errorf("merge-shards: shard %d/%d ran on %s registers, others on %s",
				r.Shard.Index, r.Shard.Of, regsOf(r), regsOf(first))
		}
		if r.Trace == "" && r.Workload != "consensus-sweep" {
			return nil, fmt.Errorf("merge-shards: shard %d/%d of workload %s carries no trace slice",
				r.Shard.Index, r.Shard.Of, r.Workload)
		}
		if r.Shard.Lo != at {
			return nil, fmt.Errorf("merge-shards: slices do not tile the seed space: want a shard starting at %d, got [%d,%d)",
				at, r.Shard.Lo, r.Shard.Hi)
		}
		if r.Shard.Hi < r.Shard.Lo {
			return nil, fmt.Errorf("merge-shards: inverted slice [%d,%d)", r.Shard.Lo, r.Shard.Hi)
		}
		at = r.Shard.Hi
		steps.Merge(r.Steps)
		work.Merge(r.Work)
		decided += r.Decided
		if r.Trace != "" {
			tr, err := workload.Decode(strings.NewReader(r.Trace))
			if err != nil {
				return nil, fmt.Errorf("merge-shards: shard %d/%d trace: %w", r.Shard.Index, r.Shard.Of, err)
			}
			traces = append(traces, tr)
		}
	}
	if at != first.Trials {
		return nil, fmt.Errorf("merge-shards: slices cover [0,%d) of %d trials", at, first.Trials)
	}
	digest, err := scalingDigest(&steps, &work, decided)
	if err != nil {
		return nil, err
	}
	merged := &shardReport{
		Workload:  first.Workload,
		N:         first.N,
		Trials:    first.Trials,
		Seed:      first.Seed,
		Registers: regsOf(first),
		Shard:     shardSlice{Index: 0, Of: 1, Lo: 0, Hi: first.Trials},
		Steps:     &steps,
		Work:      &work,
		Decided:   decided,
		Digest:    digest,
	}
	if len(traces) > 0 {
		trace, err := workload.Merge(traces...)
		if err != nil {
			return nil, fmt.Errorf("merge-shards: %w", err)
		}
		served, err := trace.Serve()
		if err != nil {
			return nil, err
		}
		merged.Trace, merged.Metrics = encodeTrace(trace), served.Metrics
	}
	merged.stamp(map[string]string{"merged-shards": fmt.Sprint(len(reports))})
	return merged, nil
}

// emitShardReport writes the artifact as indented JSON on stdout, matching
// the other JSON emitters, after saving its workload trace to traceOut
// when one is named.
func emitShardReport(r *shardReport, traceOut string) error {
	if traceOut != "" {
		if r.Trace == "" {
			return fmt.Errorf("-trace-out: the report carries no workload trace")
		}
		if err := os.WriteFile(traceOut, []byte(r.Trace), 0o666); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// parseShardRef parses the -shard-run "i/M" form.
func parseShardRef(s string) (index, of int, err error) {
	i, m, ok := strings.Cut(s, "/")
	index, err1 := strconv.Atoi(i)
	of, err2 := strconv.Atoi(m)
	if !ok || err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("-shard-run: want i/M, got %q", s)
	}
	if of < 1 || index < 0 || index >= of {
		return 0, 0, fmt.Errorf("-shard-run: shard %d/%d out of range", index, of)
	}
	return index, of, nil
}

// readShardReports reads the -merge-shards artifact files.
func readShardReports(files string) ([]*shardReport, error) {
	var reports []*shardReport
	for _, name := range strings.Split(files, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r shardReport
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("merge-shards: %s: %w", name, err)
		}
		reports = append(reports, &r)
	}
	return reports, nil
}

// sweepFlags bundles the flags of the seed-space modes (-shard-run,
// -shards, -merge-shards, -workload and -trace-in) and the sweep knobs they
// share.
type sweepFlags struct {
	ShardRun    string // -shard-run i/M
	Shards      int    // -shards M
	MergeShards string // -merge-shards, comma-separated artifact files
	Workload    string // -workload spec
	TraceIn     string // -trace-in, comma-separated trace files
	TraceOut    string // -trace-out
	// Trials is the FULL seed space; Seed the shared root; Workers each
	// process's concurrency cap.
	Trials    int
	Seed      uint64
	Workers   int
	Registers register.Semantics
	// Set names the flags given explicitly on the command line.
	Set map[string]bool
}

// runSweepMode is the one router of the seed-space modes. -shard-run,
// -shards, -merge-shards and -trace-in exclude one another; -workload
// combines with -shard-run and -shards, or runs the whole space in this
// process on its own.
func runSweepMode(f sweepFlags) error {
	mode := ""
	for _, m := range []struct {
		name string
		on   bool
	}{
		{"shard-run", f.ShardRun != ""},
		{"shards", f.Shards != 0},
		{"merge-shards", f.MergeShards != ""},
		{"trace-in", f.TraceIn != ""},
	} {
		if !m.on {
			continue
		}
		if mode != "" {
			return fmt.Errorf("-%s and -%s are different modes; pass one of them", mode, m.name)
		}
		mode = m.name
	}
	if f.Workload != "" && (mode == "merge-shards" || mode == "trace-in") {
		return fmt.Errorf("-workload and -%s conflict: the -%s inputs carry their own workload; drop -workload", mode, mode)
	}
	if f.TraceOut != "" && f.Workload == "" && mode != "merge-shards" && mode != "trace-in" {
		return fmt.Errorf("-trace-out needs -workload (nothing to record)")
	}
	switch mode {
	case "merge-shards":
		reports, err := readShardReports(f.MergeShards)
		if err != nil {
			return err
		}
		merged, err := mergeShardReports(reports)
		if err != nil {
			return err
		}
		return emitShardReport(merged, f.TraceOut)
	case "trace-in":
		return runTraceReplay(f)
	}
	job := sweepJob{Trials: f.Trials, Seed: f.Seed, Workers: f.Workers, Registers: f.Registers}
	if f.Workload != "" {
		spec, err := workload.Parse(f.Workload)
		if err != nil {
			return fmt.Errorf("-workload: %w", err)
		}
		job.Spec = spec
	}
	var report *shardReport
	var err error
	switch mode {
	case "shard-run":
		// One slice, by the fan-out or by hand across machines (save each
		// shard's stdout, then -merge-shards the files).
		index, of, perr := parseShardRef(f.ShardRun)
		if perr != nil {
			return perr
		}
		report, err = job.slice(index, of)
	case "shards":
		report, err = job.fanout(f.Shards)
	default: // -workload alone: the whole space in this process
		if report, err = job.slice(0, 1); err == nil {
			report, err = mergeShardReports([]*shardReport{report})
		}
	}
	if err != nil {
		return err
	}
	return emitShardReport(report, f.TraceOut)
}
