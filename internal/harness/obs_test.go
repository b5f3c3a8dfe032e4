package harness

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// histProtocolRun is the shared trial body for the histogram determinism
// tests: a full consensus execution, as the experiment drivers run it.
func histProtocolRun(t *testing.T, ctx context.Context, tr Trial, meter *obs.Meter) (*ProtocolRun, error) {
	t.Helper()
	const n = 8
	file := register.NewFile()
	proto, err := recipe.Spec{N: n, M: 2, FastPath: true}.Build(file)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]value.Value, n)
	for p := range inputs {
		inputs[p] = value.Value((p + tr.Index) % 2)
	}
	cfg := ObjectConfig{
		N: n, File: file, Inputs: inputs,
		Scheduler: sched.NewUniformRandom(),
		Seed:      tr.Seed, Context: ctx, Meter: meter,
	}
	return RunProtocol(proto, cfg)
}

// histAggregate runs the consensus sweep with attached histograms on either
// engine and returns both histograms' full JSON encodings (which include
// every bucket, so comparison is bit-level, not summary-level).
func histAggregate(t *testing.T, workers int, robust bool) (stepsJSON, workJSON string) {
	t.Helper()
	var stepsH, workH obs.Hist
	s := Sweep{
		Trials: 32, Workers: workers, Seed: 99,
		StepsHist: &stepsH, WorkHist: &workH,
	}
	run := func(ctx context.Context, tr Trial) (*ProtocolRun, error) {
		return histProtocolRun(t, ctx, tr, nil)
	}
	if robust {
		report, err := RunTrialsRobust(s, Resilience{Deadline: 30 * time.Second}, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		if report.Count(OutcomeOK) != s.Trials {
			t.Fatalf("robust sweep outcomes %s, want all ok", report)
		}
	} else {
		if err := RunTrials(s, run, nil); err != nil {
			t.Fatal(err)
		}
	}
	sj, err := json.Marshal(&stepsH)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(&workH)
	if err != nil {
		t.Fatal(err)
	}
	return string(sj), string(wj)
}

// TestHistDeterministicAcrossWorkersAndEngines pins the observability
// determinism property: histogram and percentile aggregates are bit-identical
// across 1/4/16 workers AND across RunTrials vs RunTrialsRobust on the same
// seed (when every trial classifies ok, the resilient engine must fold the
// exact same observations).
func TestHistDeterministicAcrossWorkersAndEngines(t *testing.T) {
	refSteps, refWork := histAggregate(t, 1, false)
	if refSteps == "" || refWork == "" {
		t.Fatal("empty reference histograms")
	}
	for _, workers := range []int{4, 16} {
		sj, wj := histAggregate(t, workers, false)
		if sj != refSteps {
			t.Errorf("workers=%d steps histogram diverged:\n%s\n%s", workers, sj, refSteps)
		}
		if wj != refWork {
			t.Errorf("workers=%d work histogram diverged:\n%s\n%s", workers, wj, refWork)
		}
	}
	for _, workers := range []int{1, 4, 16} {
		sj, wj := histAggregate(t, workers, true)
		if sj != refSteps {
			t.Errorf("robust workers=%d steps histogram diverged:\n%s\n%s", workers, sj, refSteps)
		}
		if wj != refWork {
			t.Errorf("robust workers=%d work histogram diverged:\n%s\n%s", workers, wj, refWork)
		}
	}
}

// sweepSink records every snapshot a sweep reporter emits, and the
// goroutine that emitted it.
type sweepSink struct {
	snaps []obs.Snapshot
	gids  []string
}

func (s *sweepSink) Emit(p obs.Snapshot) {
	s.snaps = append(s.snaps, p)
	s.gids = append(s.gids, goroutineID())
}

// TestSweepReporterAndMeter pins the progress plumbing end to end: the
// reporter receives per-merge snapshots plus a final one, and an attached
// meter counts every executed operation live (its total must equal the steps
// histogram's exact sum, since on sim steps == total work).
func TestSweepReporterAndMeter(t *testing.T) {
	sink := &sweepSink{}
	var stepsH obs.Hist
	meter := &obs.Meter{}
	s := Sweep{
		Trials: 8, Workers: 4, Seed: 7,
		Reporter:  obs.NewReporter(sink, 0),
		StepsHist: &stepsH,
		Meter:     meter,
	}
	err := RunTrials(s, func(ctx context.Context, tr Trial) (*ProtocolRun, error) {
		return histProtocolRun(t, ctx, tr, s.Meter)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.snaps) != 9 { // 8 merges + 1 final
		t.Fatalf("got %d snapshots, want 9", len(sink.snaps))
	}
	last := sink.snaps[len(sink.snaps)-1]
	if !last.Final || last.Done != 8 || last.Total != 8 {
		t.Fatalf("final snapshot = %+v", last)
	}
	if got, want := meter.Steps(), stepsH.Sum(); got != want {
		t.Fatalf("meter counted %d steps, histogram sum %d", got, want)
	}
	if last.Steps != meter.Steps() {
		t.Fatalf("final snapshot steps %d, meter %d", last.Steps, meter.Steps())
	}
}

// TestRobustProgressViolations pins that the resilient engine surfaces its
// running violation count through the reporter.
func TestRobustProgressViolations(t *testing.T) {
	violation := errors.New("agreement violated")
	sink := &sweepSink{}
	s := Sweep{
		Trials: 6, Seed: 5,
		Reporter: obs.NewReporter(sink, 0),
	}
	report, err := RunTrialsRobust(s, Resilience{},
		func(ctx context.Context, tr Trial) (fakeViolator, error) {
			if tr.Index == 2 || tr.Index == 4 {
				return fakeViolator{v: violation}, nil
			}
			return fakeViolator{}, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Violations() != 2 {
		t.Fatalf("report violations = %d, want 2", report.Violations())
	}
	last := sink.snaps[len(sink.snaps)-1]
	if !last.Final || last.Violations != 2 {
		t.Fatalf("final snapshot = %+v", last)
	}
}
