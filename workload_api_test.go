package modcon

// Public-API tests for the workload plane: attaching a workload must not
// change sweep results, a recorded trace must replay bit-identically (and
// a tampered one must fail loudly), and the option conflicts must be
// actionable errors.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
)

// workloadSolve is the canonical public flow: Consensus.Solve per trial.
func workloadSolve(t *testing.T, cons *Consensus) func(ctx context.Context, tr Trial) (*Outcome, error) {
	t.Helper()
	n := cons.N()
	return func(ctx context.Context, tr Trial) (*Outcome, error) {
		inputs := make([]Value, n)
		for p := range inputs {
			inputs[p] = Value((p + tr.Index) % 2)
		}
		return cons.Solve(inputs, NewUniformRandom(), tr.Seed, RunConfig{Context: ctx})
	}
}

// TestTrialsWorkloadAggregatesUnchanged: a sweep with a workload attached
// folds the same per-trial results as the sweep without one, at any worker
// count.
func TestTrialsWorkloadAggregatesUnchanged(t *testing.T) {
	cons, err := NewBinary(6)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseWorkload("poisson:rate=100000")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 24
	sweep := func(workers int, opts ...RunOption) []int {
		works := make([]int, trials)
		opts = append(opts, WithSeed(7), WithWorkers(workers))
		report, err := Trials(trials, workloadSolve(t, cons),
			func(tr Trial, out *Outcome, rep TrialReport) { works[tr.Index] = out.TotalWork },
			opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := report.Count(TrialOK); got != trials {
			t.Fatalf("%d ok trials, want %d: %s", got, trials, report)
		}
		return works
	}
	closed := sweep(4)
	for _, workers := range []int{1, 4} {
		open := sweep(workers, WithWorkload(spec))
		if !reflect.DeepEqual(open, closed) {
			t.Fatalf("workers=%d: open-loop sweep diverged from closed-loop results", workers)
		}
	}
}

// TestTrialsTraceRecordReplay is the replay contract end to end at the
// public layer: record a trace, replay it from nothing but the trace, and
// the re-recorded artifact is byte-identical; tampering fails with
// ErrTraceDiverged.
func TestTrialsTraceRecordReplay(t *testing.T) {
	cons, err := NewBinary(5)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseWorkload("burst:rate=200000,on=1ms,off=1ms;serve:servers=2")
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20
	var trace WorkloadTrace
	if _, err := Trials(trials, workloadSolve(t, cons), nil,
		WithSeed(11), WithWorkers(4), WithWorkload(spec), WithTraceRecord(&trace)); err != nil {
		t.Fatal(err)
	}
	if !trace.Complete() || trace.Trials != trials || trace.Seed != 11 {
		t.Fatalf("recorded trace header off: %+v", trace)
	}

	// Replay with no spec, no seed — everything comes from the trace.
	if _, err := Trials(trials, workloadSolve(t, cons), nil,
		WithWorkers(2), WithTraceReplay(&trace)); err != nil {
		t.Fatalf("faithful replay failed: %v", err)
	}

	// Replay-and-rerecord through a fresh recording gives identical bytes.
	var again WorkloadTrace
	if _, err := Trials(trials, workloadSolve(t, cons), nil,
		WithSeed(11), WithWorkers(1), WithWorkload(spec), WithTraceRecord(&again)); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := again.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-recorded trace is not byte-identical")
	}

	// The trace serves to saturation metrics without re-running anything.
	served, err := trace.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if served.Metrics.Trials != trials || served.Metrics.LatencyUs.N() != int64(trials) {
		t.Fatalf("served metrics off: %+v", served.Metrics)
	}

	// Tampering with a demand makes replay fail loudly.
	trace.Entries[3].Steps++
	_, err = Trials(trials, workloadSolve(t, cons), nil,
		WithWorkers(2), WithTraceReplay(&trace))
	if !errors.Is(err, ErrTraceDiverged) {
		t.Fatalf("tampered replay returned %v, want ErrTraceDiverged", err)
	}
}

// TestWorkloadOptionValidation pins the conflict and misuse errors.
func TestWorkloadOptionValidation(t *testing.T) {
	cons, err := NewBinary(4)
	if err != nil {
		t.Fatal(err)
	}
	run := workloadSolve(t, cons)
	spec, err := ParseWorkload("steady:rate=1000")
	if err != nil {
		t.Fatal(err)
	}
	var trace WorkloadTrace
	if _, err := Trials(4, run, nil, WithSeed(3), WithWorkload(spec), WithTraceRecord(&trace)); err != nil {
		t.Fatal(err)
	}

	for name, opts := range map[string][]RunOption{
		"record without workload": {WithTraceRecord(&WorkloadTrace{})},
		"replay plus workload":    {WithTraceReplay(&trace), WithWorkload(spec)},
		"replay plus record":      {WithTraceReplay(&trace), WithTraceRecord(&WorkloadTrace{})},
		"replay conflicting seed": {WithTraceReplay(&trace), WithSeed(99)},
	} {
		if _, err := Trials(4, run, nil, opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: got %v, want ErrBadOption", name, err)
		}
	}
	if _, err := Trials(7, run, nil, WithTraceReplay(&trace)); !errors.Is(err, ErrBadOption) {
		t.Errorf("replay trial-count mismatch: got %v, want ErrBadOption", err)
	}
	partial := trace
	partial.Hi = 2
	if _, err := Trials(4, run, nil, WithTraceReplay(&partial)); !errors.Is(err, ErrBadOption) {
		t.Errorf("replay of shard slice: got %v, want ErrBadOption", err)
	}
	if _, err := ParseWorkload("poisson:rate=-2"); !errors.Is(err, ErrBadOption) {
		t.Errorf("ParseWorkload on invalid spec: got %v, want ErrBadOption", err)
	}
	if s, err := ParseWorkload(""); err != nil || s != nil {
		t.Errorf("ParseWorkload(\"\") = %v, %v; want nil, nil", s, err)
	}
}
