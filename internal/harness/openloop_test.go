package harness

// Tests for open-loop admission: an arrival schedule must change only when
// trials start, never what they compute or how results fold, so every
// aggregate is bit-identical with or without a schedule — and a recorded
// trace of an open-loop sweep must replay to the same demands exactly.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/workload"
)

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

// TestOpenLoopAggregatesUnchanged: the same protocol sweep, closed-loop and
// open-loop, folds identical per-trial work — admission affects dispatch
// timing only.
func TestOpenLoopAggregatesUnchanged(t *testing.T) {
	const n, trials = 6, 48
	_, arrivals := openSchedule(t, trials)
	run := func(arr []int64, workers, offset, count int) []int {
		works := make([]int, trials)
		err := SweepProtocol(
			Sweep{Trials: count, Workers: workers, Seed: 31, Offset: offset, Arrivals: arr},
			poolConsensusSpec(t, n, nil),
			func(tr Trial, run *ProtocolRun) { works[tr.Index] = run.Result.TotalWork })
		if err != nil {
			t.Fatal(err)
		}
		return works
	}
	closed := run(nil, 4, 0, trials)
	open := run(arrivals, 4, 0, trials)
	if !reflect.DeepEqual(closed, open) {
		t.Fatal("open-loop admission changed per-trial results")
	}
	serial := run(arrivals, 1, 0, trials)
	if !reflect.DeepEqual(open, serial) {
		t.Fatal("open-loop results depend on worker count")
	}
	// Sharded slices against the full (unsliced) schedule tile the same
	// per-trial results.
	sharded := make([]int, trials)
	for lo := 0; lo < trials; lo += 16 {
		part := run(arrivals, 3, lo, 16)
		copy(sharded[lo:lo+16], part[lo:lo+16])
	}
	if !reflect.DeepEqual(open, sharded) {
		t.Fatal("sharded open-loop sweep diverged from the unsharded run")
	}
}

// TestOpenLoopRecordReplay: record a trace from an open-loop sweep, re-run
// the sweep, and the replayed demands must verify against the recording —
// and the re-recorded trace must encode to identical bytes.
func TestOpenLoopRecordReplay(t *testing.T) {
	const n, trials = 5, 40
	spec, arrivals := openSchedule(t, trials)
	sweep := func(workers int) []int64 {
		demands := make([]int64, trials)
		err := SweepProtocol(
			Sweep{Trials: trials, Workers: workers, Seed: 13, Arrivals: arrivals},
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

// TestAdmissionValidation: malformed schedules fail the sweep up front.
func TestAdmissionValidation(t *testing.T) {
	noop := func(ctx context.Context, tr Trial) (int, error) { return 0, nil }
	cases := []Sweep{
		{Trials: 4, Arrivals: []int64{0, 1, 2}},               // too short
		{Trials: 2, Offset: 3, Arrivals: []int64{0, 1, 2, 3}}, // short for offset
		{Trials: 3, Arrivals: []int64{0, 5, 2}},               // decreasing
		{Trials: 2, Arrivals: []int64{0, 1}, Pace: -1},        // negative pace
	}
	for i, s := range cases {
		if err := RunTrials(s, noop, nil); err == nil {
			t.Errorf("case %d: malformed schedule accepted by RunTrials", i)
		}
		if _, err := RunTrialsRobust(s, Resilience{}, noop, nil); err == nil {
			t.Errorf("case %d: malformed schedule accepted by RunTrialsRobust", i)
		}
	}
}

// TestAdmissionPacing: with Pace > 0 the sweep waits out the scaled
// schedule; cancellation mid-wait returns promptly with the context error.
func TestAdmissionPacing(t *testing.T) {
	arrivals := []int64{0, 10_000_000, 20_000_000, 30_000_000} // 10ms spacing
	var ran int
	start := time.Now()
	err := RunTrials(
		Sweep{Trials: 4, Workers: 2, Arrivals: arrivals, Pace: 10}, // → 1ms wall spacing
		func(ctx context.Context, tr Trial) (int, error) { return 0, nil },
		func(tr Trial, r int) { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 {
		t.Fatalf("paced sweep merged %d trials, want 4", ran)
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("paced sweep finished in %v, faster than the scaled schedule allows", elapsed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = RunTrials(
		Sweep{Trials: 2, Workers: 1, Context: ctx, Arrivals: []int64{int64(time.Hour), int64(time.Hour)}, Pace: 1},
		func(ctx context.Context, tr Trial) (int, error) { return 0, nil }, nil)
	if err == nil {
		t.Fatal("cancelled paced sweep returned nil")
	}
}

// TestAdmissionCancelDropsWaitingTrials: a trial still waiting for its
// arrival when the sweep is cancelled is dropped, so under either policy the
// sweep folds the trials admitted before it and stops there.
func TestAdmissionCancelDropsWaitingTrials(t *testing.T) {
	arrivals := []int64{0, int64(time.Hour), int64(time.Hour)}
	for _, robust := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		s := Sweep{Trials: 3, Workers: 2, Context: ctx, Arrivals: arrivals, Pace: 1}
		// Trial 0 is due at once; it cancels the sweep while trial 1 waits an
		// hour for admission.
		run := func(tctx context.Context, tr Trial) (int, error) {
			cancel()
			return tr.Index, nil
		}
		var merged []int
		var err error
		if robust {
			var report *SweepReport
			report, err = RunTrialsRobust(s, Resilience{}, run,
				func(tr Trial, r int, rep TrialReport) { merged = append(merged, r) })
			if report.Trials != 1 || !report.StoppedEarly {
				t.Errorf("robust: classified %d trials (stoppedEarly=%v), want 1 and stopped early", report.Trials, report.StoppedEarly)
			}
		} else {
			err = RunTrials(s, run, func(tr Trial, r int) { merged = append(merged, r) })
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("robust=%v: err = %v, want context.Canceled", robust, err)
		}
		if want := []int{0}; !reflect.DeepEqual(merged, want) {
			t.Errorf("robust=%v: merged %v, want %v", robust, merged, want)
		}
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
