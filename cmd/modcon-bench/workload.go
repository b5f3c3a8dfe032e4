package main

// Workload modes: run the consensus sweep as the jobs of a declarative
// workload, record the executed workload as a versioned tracev1 artifact,
// and replay recorded traces with bit-identity verification. A workload
// run is the sharded consensus sweep of shard.go plus a recording: its
// report is a shardReport whose trace and metrics fields are set.
//
//	modcon-bench -workload 'poisson:rate=2000;serve:servers=4' -trials 2000
//	                                  # sweep + recording + saturation metrics
//	modcon-bench -workload ... -trace-out run.trace   # save the recording
//	modcon-bench -workload ... -shards 4              # sharded: slice traces
//	                                  # merge exactly; byte-identical to -shards 1
//	modcon-bench -trace-in run.trace                  # replay + verify
//	modcon-bench -trace-in a.trace,b.trace            # merge slices, then replay
//
// The report's body (everything outside the manifest) is identical between
// a recording run and a faithful replay of its trace — CI gates on
// `jq del(.manifest)` + cmp. A replay whose measured work diverges from
// the recording fails hard, naming the first diverging trial.

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"github.com/modular-consensus/modcon/internal/workload"
)

// recordTrace records the workload trace of global trials [lo, hi) from
// their measured demands, in the tracev1 text encoding, with the arrivals
// workload.Spec.RecordedArrivals derives.
func (j sweepJob) recordTrace(lo, hi int, demands []int64) (string, error) {
	arrivals, err := j.Spec.RecordedArrivals(j.Seed, j.Trials, lo, hi, demands)
	if err != nil {
		return "", fmt.Errorf("-workload: %w", err)
	}
	trace, err := workload.Record(j.Spec, j.Seed, j.Trials, lo, hi, arrivals, demands)
	if err != nil {
		return "", err
	}
	return encodeTrace(trace), nil
}

// runTraceReplay is the -trace-in mode: read the trace files (shard slices
// or a complete recording), merge them, re-run the sweep the trace
// describes, and verify every trial's measured work against the recording.
// The trace fixes the seed and the trial count, so an explicit -seed or
// -trials that differs from it is an error. The emitted report is
// byte-identical (manifest aside) to the recording run's report.
func runTraceReplay(f sweepFlags) error {
	var parts []*workload.Trace
	for _, name := range strings.Split(f.TraceIn, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		file, err := os.Open(name)
		if err != nil {
			return err
		}
		tr, err := workload.Decode(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("-trace-in: %s: %w", name, err)
		}
		parts = append(parts, tr)
	}
	if len(parts) == 0 {
		return fmt.Errorf("-trace-in: no trace files")
	}
	trace := parts[0]
	if len(parts) > 1 || !trace.Complete() {
		merged, err := workload.Merge(parts...)
		if err != nil {
			return fmt.Errorf("-trace-in: %w", err)
		}
		trace = merged
	}
	spec, err := trace.ParseSpec()
	if err != nil {
		return fmt.Errorf("-trace-in: %w", err)
	}
	if f.Set["seed"] && f.Seed != trace.Seed {
		return fmt.Errorf("-trace-in: trace was recorded with -seed %d; drop the conflicting -seed %d", trace.Seed, f.Seed)
	}
	if f.Set["trials"] && f.Trials != trace.Trials {
		return fmt.Errorf("-trace-in: trace records -trials %d; drop the conflicting -trials %d", trace.Trials, f.Trials)
	}
	job := sweepJob{Spec: spec, Trials: trace.Trials, Seed: trace.Seed, Workers: f.Workers, Registers: f.Registers}
	report, err := job.slice(0, 1)
	if err != nil {
		return err
	}
	replayed, err := workload.Decode(strings.NewReader(report.Trace))
	if err != nil {
		return fmt.Errorf("workload: internal: %w", err)
	}
	if err := trace.Verify(replayed.Demands()); err != nil {
		return fmt.Errorf("trace replay diverged (different binary, registers model, or tampered trace?): %w", err)
	}
	report.Trace = encodeTrace(trace) // the report carries the trace it replayed
	if report, err = mergeShardReports([]*shardReport{report}); err != nil {
		return err
	}
	report.Manifest.Config["trace-in"] = f.TraceIn
	return emitShardReport(report, f.TraceOut)
}

// encodeTrace renders a trace in its text encoding; the encoding only
// fails on invalid traces, which Record/Merge never produce.
func encodeTrace(t *workload.Trace) string {
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		panic(fmt.Sprintf("workload: encode recorded trace: %v", err))
	}
	return buf.String()
}
