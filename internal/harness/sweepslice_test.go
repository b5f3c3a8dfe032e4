package harness

// Tests for sweeps over slices of a seed space: a sweep's per-trial results
// must not depend on the worker count or on how the space is split into
// offset slices, and a recorded workload trace of a sweep must replay to
// the same demands exactly.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/modular-consensus/modcon/internal/workload"
)

// TestSweepTilesAcrossWorkersAndShards: the same protocol sweep folds
// identical per-trial work at any worker count, and offset slices of it
// tile the unsliced run trial by trial.
func TestSweepTilesAcrossWorkersAndShards(t *testing.T) {
	const n, trials = 6, 48
	run := func(workers, offset, count int) []int {
		works := make([]int, trials)
		err := SweepProtocol(
			Sweep{Trials: count, Workers: workers, Seed: 31, Offset: offset},
			poolConsensusSpec(t, n, nil),
			func(tr Trial, run *ProtocolRun) { works[tr.Index] = run.Result.TotalWork })
		if err != nil {
			t.Fatal(err)
		}
		return works
	}
	parallel := run(4, 0, trials)
	serial := run(1, 0, trials)
	if !reflect.DeepEqual(parallel, serial) {
		t.Fatal("per-trial results depend on worker count")
	}
	sharded := make([]int, trials)
	for lo := 0; lo < trials; lo += 16 {
		part := run(3, lo, 16)
		copy(sharded[lo:lo+16], part[lo:lo+16])
	}
	if !reflect.DeepEqual(parallel, sharded) {
		t.Fatal("sharded sweep diverged from the unsharded run")
	}
}

// openSchedule builds a Poisson arrival schedule long enough for n trials.
func openSchedule(t *testing.T, n int) (*workload.Spec, []int64) {
	t.Helper()
	spec, err := workload.Parse("poisson:rate=200000")
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := spec.Schedule(77, n)
	if err != nil {
		t.Fatal(err)
	}
	return spec, arrivals
}

// TestSweepRecordReplay: record a workload trace of a sweep, re-run the
// sweep, and the replayed demands must verify against the recording — and
// the re-recorded trace must encode to identical bytes.
func TestSweepRecordReplay(t *testing.T) {
	const n, trials = 5, 40
	spec, arrivals := openSchedule(t, trials)
	sweep := func(workers int) []int64 {
		demands := make([]int64, trials)
		err := SweepProtocol(
			Sweep{Trials: trials, Workers: workers, Seed: 13},
			poolConsensusSpec(t, n, nil),
			func(tr Trial, run *ProtocolRun) {
				steps, _ := run.SweepCost()
				demands[tr.Index] = int64(steps)
			})
		if err != nil {
			t.Fatal(err)
		}
		return demands
	}
	recorded, err := workload.Record(spec, 13, trials, 0, trials, arrivals[:trials], sweep(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := recorded.Verify(sweep(2)); err != nil {
		t.Fatalf("replay diverged from the recording: %v", err)
	}
	replayed, err := workload.Record(spec, 13, trials, 0, trials, arrivals[:trials], sweep(1))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := recorded.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-recorded trace is not byte-identical")
	}
}

// TestRobustSweepOffset: the resilient engine folds a shard slice whose
// trial indices start at Offset (a regression test — the fold previously
// assumed indices start at 0 and stalled on any offset slice).
func TestRobustSweepOffset(t *testing.T) {
	const offset, trials = 5, 10
	var merged []int
	report, err := RunTrialsRobust(
		Sweep{Trials: trials, Offset: offset, Workers: 3, Seed: 9},
		Resilience{},
		func(ctx context.Context, tr Trial) (int, error) { return tr.Index, nil },
		func(tr Trial, r int, rep TrialReport) { merged = append(merged, r) })
	if err != nil {
		t.Fatal(err)
	}
	if report.Trials != trials || report.StoppedEarly {
		t.Fatalf("offset robust sweep classified %d trials (stoppedEarly=%v), want %d", report.Trials, report.StoppedEarly, trials)
	}
	want := make([]int, 0, trials)
	for i := offset; i < offset+trials; i++ {
		want = append(want, i)
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("offset robust fold order %v, want %v", merged, want)
	}
}
