package main

// Sharded sweep fan-out: split one deterministic seed space across M shards,
// run each shard as its own modcon-bench subprocess, and merge the per-shard
// artifacts into a report byte-identical (manifest aside) to running the
// whole space in one process.
//
// The contract rests on two exact mechanisms. Trial i's work is a pure
// function of (root seed, i) — harness.Sweep.Offset lets a shard run the
// contiguous global slice [lo, hi) computing exactly what the unsharded
// sweep would — and obs.Hist holds only integer state with an exact
// commutative merge, so reassembling shard histograms loses nothing. The
// merge re-derives the digest from the merged aggregates; CI compares a
// 1-shard run against a merged 4-shard run with `jq del(.manifest)` + cmp.
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
	"strings"

	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
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
// shard's slice of the seed space.
type shardReport struct {
	Manifest obs.Manifest `json:"manifest"`
	Workload string       `json:"workload"`
	N        int          `json:"n"`
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
	// Digest is scalingDigest over (Steps, Work, Decided) — the same hash the
	// -bench-scaling determinism gate uses, recomputed after every merge.
	Digest string `json:"digest"`
}

// shardSpan computes shard index's slice of [0, trials): the canonical
// near-even contiguous partition, i*T/M to (i+1)*T/M.
func shardSpan(index, of, trials int) (lo, hi int) {
	return index * trials / of, (index + 1) * trials / of
}

// runShardSlice runs the consensus sweep over global trials [lo, hi) and
// returns the shard artifact. Offset keeps every trial's global index and
// seed, so the shard computes exactly the trials the unsharded sweep would.
func runShardSlice(index, of, trials int, seed uint64, workers int, regs register.Semantics) (*shardReport, error) {
	lo, hi := shardSpan(index, of, trials)
	var steps, work obs.Hist
	decided := 0
	err := harness.SweepProtocol(
		harness.Sweep{Trials: hi - lo, Offset: lo, Workers: workers, Seed: seed},
		scalingSweep(regs),
		func(tr harness.Trial, run *harness.ProtocolRun) {
			steps.AddInt(run.Result.TotalWork)
			work.AddInt(run.Result.MaxIndividualWork())
			if len(run.DecidedOutputs()) == scalingN {
				decided++
			}
		})
	if err != nil {
		return nil, err
	}
	digest, err := scalingDigest(&steps, &work, decided)
	if err != nil {
		return nil, err
	}
	manifest := obs.NewManifest("modcon-bench")
	manifest.Seed = seed
	manifest.Backend = "sim"
	manifest.Registers = regs.String()
	manifest.Config = map[string]string{
		"shard":     fmt.Sprintf("%d/%d", index, of),
		"trials":    fmt.Sprint(trials),
		"seed":      fmt.Sprint(seed),
		"workers":   fmt.Sprint(workers),
		"registers": regs.String(),
	}
	return &shardReport{
		Manifest:  manifest,
		Workload:  "consensus-sweep",
		N:         scalingN,
		Trials:    trials,
		Seed:      seed,
		Registers: regs.String(),
		Shard:     shardSlice{Index: index, Of: of, Lo: lo, Hi: hi},
		Steps:     &steps,
		Work:      &work,
		Decided:   decided,
		Digest:    digest,
	}, nil
}

// mergeShardReports folds shard artifacts into one normalized report. It
// demands a complete, non-overlapping tiling of [0, Trials) over a single
// (workload, n, trials, seed) run; input order is irrelevant because the
// shards are sorted by Lo and obs.Hist.Merge is exact and commutative.
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
	}
	if at != first.Trials {
		return nil, fmt.Errorf("merge-shards: slices cover [0,%d) of %d trials", at, first.Trials)
	}
	digest, err := scalingDigest(&steps, &work, decided)
	if err != nil {
		return nil, err
	}
	manifest := obs.NewManifest("modcon-bench")
	manifest.Seed = first.Seed
	manifest.Backend = "sim"
	manifest.Registers = regsOf(first)
	manifest.Config = map[string]string{
		"merged-shards": fmt.Sprint(len(reports)),
		"trials":        fmt.Sprint(first.Trials),
		"seed":          fmt.Sprint(first.Seed),
		"registers":     regsOf(first),
	}
	return &shardReport{
		Manifest:  manifest,
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
	}, nil
}

// emitShardReport writes the artifact as indented JSON on stdout, matching
// the other JSON emitters.
func emitShardReport(r *shardReport) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// parseShardRef parses the -shard-run "i/M" form.
func parseShardRef(s string) (index, of int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &index, &of); err != nil {
		return 0, 0, fmt.Errorf("-shard-run: want i/M, got %q", s)
	}
	if of < 1 || index < 0 || index >= of {
		return 0, 0, fmt.Errorf("-shard-run: shard %d/%d out of range", index, of)
	}
	return index, of, nil
}

// runShardRun is the -shard-run mode: execute one slice and print its
// artifact. It exists for the fan-out below to invoke, but is equally usable
// by hand for spreading shards across machines (save each shard's stdout,
// then -merge-shards the files).
func runShardRun(ref string, trials int, seed uint64, workers int, regs register.Semantics) error {
	index, of, err := parseShardRef(ref)
	if err != nil {
		return err
	}
	report, err := runShardSlice(index, of, trials, seed, workers, regs)
	if err != nil {
		return err
	}
	return emitShardReport(report)
}

// runShardFanout is the -shards M mode: spawn one -shard-run subprocess per
// shard (concurrently; each inherits the -workers cap), collect their JSON
// artifacts, merge, and print the normalized report. M = 1 degenerates to
// the merge of a single full-space shard, so the output schema — and, by the
// determinism contract, every byte outside the manifest — is independent
// of M.
func runShardFanout(shards, trials int, seed uint64, workers int, regs register.Semantics) error {
	if shards < 1 {
		return fmt.Errorf("-shards: want ≥ 1, got %d", shards)
	}
	if trials < 1 {
		return fmt.Errorf("-shards: want -trials ≥ 1, got %d", trials)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("shards: locate own binary: %w", err)
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
			cmd := exec.Command(self,
				"-shard-run", fmt.Sprintf("%d/%d", i, shards),
				"-trials", fmt.Sprint(trials),
				"-seed", fmt.Sprint(seed),
				"-workers", fmt.Sprint(workers),
				"-registers", regs.String())
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
			return slots[i].err
		}
		reports = append(reports, slots[i].report)
		fmt.Fprintf(os.Stderr, "shards: %d/%d [%d,%d) decided=%d %s\n",
			i, shards, slots[i].report.Shard.Lo, slots[i].report.Shard.Hi,
			slots[i].report.Decided, slots[i].report.Digest[:16])
	}
	merged, err := mergeShardReports(reports)
	if err != nil {
		return err
	}
	return emitShardReport(merged)
}

// runMergeShards is the -merge-shards mode: read saved shard artifacts,
// merge, and print the normalized report.
func runMergeShards(files string) error {
	var reports []*shardReport
	for _, name := range strings.Split(files, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var r shardReport
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("merge-shards: %s: %w", name, err)
		}
		reports = append(reports, &r)
	}
	merged, err := mergeShardReports(reports)
	if err != nil {
		return err
	}
	return emitShardReport(merged)
}
