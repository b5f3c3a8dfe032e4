package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/stats"
	"github.com/modular-consensus/modcon/internal/value"
)

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		s := TrialSeed(42, i)
		if s2 := TrialSeed(42, i); s2 != s {
			t.Fatalf("TrialSeed(42, %d) unstable: %d != %d", i, s, s2)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("TrialSeed collision: trials %d and %d both got %d", j, i, s)
		}
		seen[s] = i
	}
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Fatal("distinct roots gave identical trial-0 seeds")
	}
}

// consensusAggregate runs one pooled sweep of full consensus executions,
// exactly as the experiment drivers do, and returns the JSON of its total-
// and individual-work histograms (every bucket, so comparison is
// bit-level) and its decision tally.
func consensusAggregate(t *testing.T, workers int) (total, individual string, decided stats.Tally) {
	t.Helper()
	const n, trials = 8, 48
	s := Sweep{Trials: trials, Workers: workers, Seed: 99, StepsHist: &obs.Hist{}, WorkHist: &obs.Hist{}}
	err := SweepProtocol(s, poolConsensusSpec(t, n, nil), func(tr Trial, run *ProtocolRun) {
		decided.Add(len(run.DecidedOutputs()) == n)
	})
	if err != nil {
		t.Fatal(err)
	}
	tj, err := json.Marshal(s.StepsHist)
	if err != nil {
		t.Fatal(err)
	}
	ij, err := json.Marshal(s.WorkHist)
	if err != nil {
		t.Fatal(err)
	}
	return string(tj), string(ij), decided
}

// TestSweepDeterministicAcrossWorkerCounts is the contract the experiments
// rely on: the same root seed produces bit-identical aggregates whether the
// sweep runs on 1, 4, or 16 workers.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	refTotal, refInd, refDec := consensusAggregate(t, 1)
	for _, workers := range []int{4, 16} {
		total, ind, dec := consensusAggregate(t, workers)
		if total != refTotal {
			t.Errorf("workers=%d total-work histogram diverged:\n%s\n%s", workers, total, refTotal)
		}
		if ind != refInd {
			t.Errorf("workers=%d individual-work histogram diverged:\n%s\n%s", workers, ind, refInd)
		}
		if dec != refDec {
			t.Errorf("workers=%d decision tally diverged: %+v != %+v", workers, dec, refDec)
		}
	}
}

func TestSweepMergesInTrialOrder(t *testing.T) {
	var order []int
	err := RunTrials(Sweep{Trials: 50, Workers: 8, Seed: 5},
		func(ctx context.Context, tr Trial) (int, error) {
			// Stagger completion so later trials often finish first.
			if tr.Index%7 == 0 {
				time.Sleep(time.Millisecond)
			}
			return tr.Index, nil
		},
		func(tr Trial, r int) { order = append(order, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 {
		t.Fatalf("merged %d trials, want 50", len(order))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("merge out of order at %d: %v", i, order)
		}
	}
}

func TestSweepProgressHook(t *testing.T) {
	sink := &sweepSink{}
	err := SweepObject(
		Sweep{Trials: 10, Workers: 4, Seed: 3, Reporter: obs.NewReporter(sink, 0)},
		ObjectSweep{Build: func() (core.Object, ObjectConfig) {
			file := register.NewFile()
			r := ratifier.NewBinary(file, 1)
			return r, ObjectConfig{N: 2, File: file, Inputs: []value.Value{1}, Scheduler: sched.NewRoundRobin()}
		}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.snaps) != 11 { // 10 merges + 1 final
		t.Fatalf("reporter observed %d snapshots, want 11", len(sink.snaps))
	}
	last := sink.snaps[len(sink.snaps)-1]
	if !last.Final || last.Done != 10 || last.Total != 10 {
		t.Fatalf("final snapshot %+v", last)
	}
	if last.Steps == 0 {
		t.Fatalf("progress did not account steps: %+v", last)
	}
	if got, want := sink.gids[len(sink.gids)-1], goroutineID(); got != want {
		t.Fatalf("final snapshot emitted on goroutine %s, want the caller's %s", got, want)
	}
}

// spinObject returns an object that reads a register forever — a stand-in
// for a hung adversary schedule that only cancellation can stop.
func spinObject(file *register.File) core.Object {
	r := file.Alloc1("spin")
	return core.Func{Name: "spin", F: func(e core.Env, _ value.Value) value.Decision {
		for {
			e.Read(r)
		}
	}}
}

func TestSweepStopsOnContextTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	// Each trial spins forever: without cancellation a single trial would
	// grind through the simulator's 10M-step default limit.
	err := SweepObject(
		Sweep{Trials: 1 << 20, Workers: 2, Seed: 1, Context: ctx},
		ObjectSweep{Build: func() (core.Object, ObjectConfig) {
			file := register.NewFile()
			return spinObject(file),
				ObjectConfig{N: 2, File: file, Inputs: []value.Value{0, 1}, Scheduler: sched.NewRoundRobin()}
		}},
		nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sweep finished despite timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("sweep took %v to notice cancellation", elapsed)
	}
}

func TestSweepReportsFirstErrorByTrialIndex(t *testing.T) {
	boom := errors.New("boom")
	err := RunTrials(Sweep{Trials: 100, Workers: 8, Seed: 1},
		func(ctx context.Context, tr Trial) (int, error) {
			if tr.Index == 3 {
				return 0, boom
			}
			return tr.Index, nil
		}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "trial 3") {
		t.Fatalf("error does not name the failing trial: %v", err)
	}
}

// TestStrictSweepContainsTrialPanics: a strict trial that panics on its
// worker fails the sweep as that trial's error, earliest by index like any
// other failure, instead of crashing the process.
func TestStrictSweepContainsTrialPanics(t *testing.T) {
	err := RunTrials(Sweep{Trials: 50, Workers: 4, Seed: 1},
		func(ctx context.Context, tr Trial) (int, error) {
			if tr.Index == 7 || tr.Index == 20 {
				panic(fmt.Sprintf("bad trial %d", tr.Index))
			}
			return tr.Index, nil
		}, nil)
	if err == nil || !strings.Contains(err.Error(), "trial 7: panic: bad trial 7") {
		t.Fatalf("err = %v, want trial 7's panic", err)
	}
}

// TestStrictSweepTrialGoexitFailsSweep: a strict trial that calls
// runtime.Goexit (t.Fatal inside run, say) ends its worker without
// returning. The sweep must still fail at that trial, as if it had
// panicked, after folding exactly the trials below it, at one worker or
// several.
func TestStrictSweepTrialGoexitFailsSweep(t *testing.T) {
	const victim = 5
	for _, workers := range []int{1, 2, 4} {
		var merged []int
		err := RunTrials(Sweep{Trials: 50, Workers: workers, Seed: 1},
			func(ctx context.Context, tr Trial) (int, error) {
				if tr.Index == victim {
					runtime.Goexit()
				}
				return tr.Index, nil
			}, func(tr Trial, r int) { merged = append(merged, r) })
		if err == nil || !strings.Contains(err.Error(), "trial 5: trial called runtime.Goexit") {
			t.Errorf("workers=%d: err = %v, want trial %d's Goexit", workers, err, victim)
		}
		if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(merged, want) {
			t.Errorf("workers=%d: merged %v, want %v", workers, merged, want)
		}
	}
}

// TestSweepCallbackPanicReachesCaller: merge runs on the sweep's workers, so
// a panic or runtime.Goexit inside it must stop the fold (no later trial is
// merged) and reach the caller only after every worker has exited: 20
// sweeps whose merge panics, or calls Goexit, leave the goroutine count where
// it was, on either policy.
func TestSweepCallbackPanicReachesCaller(t *testing.T) {
	const trials, workers, victim = 200, 2, 7
	boom := errors.New("merge failed")
	run := func(ctx context.Context, tr Trial) (int, error) { return tr.Index, nil }
	sweeps := []struct {
		name  string
		sweep func(merge func(i int))
	}{
		{"strict", func(merge func(i int)) {
			RunTrials(Sweep{Trials: trials, Workers: workers, Seed: 1}, run,
				func(tr Trial, r int) { merge(r) })
		}},
		{"robust", func(merge func(i int)) {
			RunTrialsRobust(Sweep{Trials: trials, Workers: workers, Seed: 1}, Resilience{}, run,
				func(tr Trial, r int, rep TrialReport) { merge(r) })
		}},
	}
	// call runs sweep on a goroutine of its own, with a merge that raises at
	// the victim trial, and reports what that goroutine saw: the value it
	// recovered (nil after Goexit), and whether the sweep failed to return.
	call := func(sweep func(merge func(i int)), goexit bool) (merged []int, recovered any, unwound bool) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { recovered = recover() }()
			unwound = true
			sweep(func(i int) {
				if i == victim {
					time.Sleep(time.Millisecond) // let the workers run ahead of the fold
					if goexit {
						runtime.Goexit()
					}
					panic(boom)
				}
				merged = append(merged, i)
			})
			unwound = false
		}()
		<-done
		return merged, recovered, unwound
	}
	settle := func() int {
		time.Sleep(5 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	prefix := []int{0, 1, 2, 3, 4, 5, 6}
	for _, sc := range sweeps {
		for _, goexit := range []bool{false, true} {
			name := sc.name + "/panic"
			want := any(boom)
			if goexit {
				name, want = sc.name+"/goexit", nil
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				for prev := -1; base != prev; {
					prev, base = base, settle()
				}
				for round := 0; round < 20; round++ {
					merged, recovered, unwound := call(sc.sweep, goexit)
					if !unwound || recovered != want {
						t.Fatalf("round %d: sweep unwound=%v, caller recovered %v; want the merge's %v raised in the caller", round, unwound, recovered, want)
					}
					if !reflect.DeepEqual(merged, prefix) {
						t.Fatalf("round %d: merged %v, want %v", round, merged, prefix)
					}
				}
				got := settle()
				for deadline := time.Now().Add(5 * time.Second); got > base && time.Now().Before(deadline); {
					got = settle()
				}
				if got > base {
					t.Errorf("%d goroutines after 20 sweeps whose merge raised, want at most the %d before", got, base)
				}
			})
		}
	}
}

// TestSweepFirstErrorWaitsForEarlierTrials: a failure that arrives first
// must not hide an earlier-indexed one still running — the sweep reports
// the earliest failing trial whatever the timing.
func TestSweepFirstErrorWaitsForEarlierTrials(t *testing.T) {
	slow, fast := errors.New("slow failure"), errors.New("fast failure")
	err := RunTrials(Sweep{Trials: 8, Workers: 4, Seed: 1},
		func(ctx context.Context, tr Trial) (int, error) {
			switch tr.Index {
			case 1:
				time.Sleep(20 * time.Millisecond)
				return 0, slow
			case 2:
				return 0, fast
			}
			return tr.Index, nil
		}, nil)
	if !errors.Is(err, slow) || !strings.Contains(err.Error(), "trial 1:") {
		t.Fatalf("err = %v, want trial 1's slow failure", err)
	}
}

// TestSweepFailureFoldsGapFreePrefix: a strict failure folds exactly the
// trials below it, in order — nothing at or past the failing index reaches
// merge, at any worker count.
func TestSweepFailureFoldsGapFreePrefix(t *testing.T) {
	const victim = 5
	boom := errors.New("boom")
	for _, workers := range []int{1, 3, 8} {
		var merged []int
		err := RunTrials(Sweep{Trials: 40, Workers: workers, Seed: 2},
			func(ctx context.Context, tr Trial) (int, error) {
				if tr.Index == victim {
					return 0, boom
				}
				return tr.Index, nil
			},
			func(tr Trial, r int) { merged = append(merged, r) })
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(merged, want) {
			t.Errorf("workers=%d: merged %v, want %v", workers, merged, want)
		}
	}
}

// TestSweepCancelFoldsGapFreePrefix: cancelling a strict sweep stops new
// claims, and every trial claimed before it still folds, in order — the
// merged trials are 0..k-1, never a later one past a gap.
func TestSweepCancelFoldsGapFreePrefix(t *testing.T) {
	const trials, canceller, workers = 1000, 20, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var merged []int
	err := RunTrials(Sweep{Trials: trials, Workers: workers, Seed: 3, Context: ctx},
		func(tctx context.Context, tr Trial) (int, error) {
			switch {
			case tr.Index == canceller:
				cancel()
			case tr.Index > canceller:
				// Later trials hold their worker until the cancellation, so
				// at most one per other worker is in flight when it lands.
				<-tctx.Done()
			}
			return tr.Index, nil
		},
		func(tr Trial, r int) { merged = append(merged, r) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(merged) <= canceller || len(merged) > canceller+workers {
		t.Fatalf("merged %d trials, want %d to %d", len(merged), canceller+1, canceller+workers)
	}
	for i, r := range merged {
		if r != i {
			t.Fatalf("merged trial %d at position %d: the folded trials are not a gap-free prefix", r, i)
		}
	}
}

// goroutineID parses the calling goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestStrictSweepStartsNoGoroutinePerTrial: strict trials run inline on the
// dispatcher's workers, and robust attempts on runners that the sweep keeps,
// one per worker, so under either policy a whole sweep runs on at most
// Workers goroutines.
func TestStrictSweepStartsNoGoroutinePerTrial(t *testing.T) {
	const trials, workers = 200, 3
	var mu sync.Mutex
	ids := make(map[string]bool)
	run := func(ctx context.Context, tr Trial) (int, error) {
		id := goroutineID()
		mu.Lock()
		ids[id] = true
		mu.Unlock()
		return tr.Index, nil
	}
	if err := RunTrials(Sweep{Trials: trials, Workers: workers, Seed: 4}, run, nil); err != nil {
		t.Fatal(err)
	}
	if len(ids) > workers {
		t.Errorf("strict sweep ran %d trials on %d goroutines, want at most %d (one per worker)", trials, len(ids), workers)
	}

	ids = make(map[string]bool)
	if _, err := RunTrialsRobust(Sweep{Trials: trials, Workers: workers, Seed: 4}, Resilience{}, run, nil); err != nil {
		t.Fatal(err)
	}
	if len(ids) > workers {
		t.Errorf("robust sweep ran %d trials on %d goroutines, want at most %d (one runner per worker)", trials, len(ids), workers)
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// falling between garbage collections: the baseline of a leak check, which
// waits for what earlier tests left to exit.
func settledGoroutines() int {
	settle := func() int {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	base := runtime.NumGoroutine()
	for prev := -1; base != prev; {
		prev, base = base, settle()
	}
	return base
}

// checkGoroutinesBack fails t unless the goroutine count falls back to base
// within five seconds: goroutines a sweep stops exit just after it returns.
func checkGoroutinesBack(t *testing.T, base int, after string) {
	t.Helper()
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got > base && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Errorf("%d goroutines after %s, want at most the %d before", got, after, base)
	}
}

// TestSweepWorkersClampedToTrials: a sweep starts at most one worker per
// trial (0 meaning GOMAXPROCS), and an over-provisioned sweep still hands
// every trial its own index and derived seed, folded in order.
func TestSweepWorkersClampedToTrials(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ trials, workers, want int }{
		{3, 64, 3},
		{3, 2, 2},
		{1, 0, 1},
		{1 << 20, 0, procs},
		{procs, 0, procs},
	} {
		if got := (Sweep{Trials: tc.trials, Workers: tc.workers}).workers(); got != tc.want {
			t.Errorf("Trials=%d Workers=%d: %d workers, want %d", tc.trials, tc.workers, got, tc.want)
		}
	}

	var seen []Trial
	err := RunTrials(Sweep{Trials: 3, Workers: 64, Seed: 8},
		func(ctx context.Context, tr Trial) (Trial, error) { return tr, nil },
		func(tr Trial, r Trial) { seen = append(seen, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("folded %d trials, want 3", len(seen))
	}
	for i, tr := range seen {
		if tr.Index != i || tr.Seed != TrialSeed(8, i) {
			t.Errorf("fold position %d got trial %+v, want index %d seed %d", i, tr, i, TrialSeed(8, i))
		}
	}
}

// protocolDigest is everything a protocol sweep folds, by sweep-local
// trial index.
type protocolDigest struct {
	Work, Steps, Decided []int
	Outputs              [][]value.Value
}

func (d *protocolDigest) add(run *ProtocolRun) {
	d.Work = append(d.Work, run.Result.MaxIndividualWork())
	d.Steps = append(d.Steps, run.Result.TotalWork)
	d.Decided = append(d.Decided, len(run.DecidedOutputs()))
	d.Outputs = append(d.Outputs, run.DecidedOutputs())
}

func runProtocolDigest(t *testing.T, s Sweep, spec ProtocolSweep) protocolDigest {
	t.Helper()
	var d protocolDigest
	err := SweepProtocol(s, spec, func(tr Trial, run *ProtocolRun) { d.add(run) })
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSweepProtocolRobustMatchesStrict: the robust policy runs the same
// pooled trials as the strict one, only under a watchdog on per-attempt
// goroutines, so it folds per-trial digests identical to SweepProtocol's
// at any worker count.
func TestSweepProtocolRobustMatchesStrict(t *testing.T) {
	const n, trials = 8, 24
	spec := poolConsensusSpec(t, n, nil)
	want := runProtocolDigest(t, Sweep{Trials: trials, Workers: 1, Seed: 17}, spec)
	for _, workers := range []int{1, 3} {
		var got protocolDigest
		report, err := SweepProtocolRobust(Sweep{Trials: trials, Workers: workers, Seed: 17},
			Resilience{Deadline: time.Minute}, spec,
			func(tr Trial, run *ProtocolRun, rep TrialReport) { got.add(run) })
		if err != nil {
			t.Fatal(err)
		}
		if report.Trials != trials || report.StoppedEarly {
			t.Fatalf("workers=%d: robust sweep classified %d trials (stoppedEarly=%v), want %d",
				workers, report.Trials, report.StoppedEarly, trials)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: robust sweep diverged from the strict sweep", workers)
		}
	}
}

// TestSweepOffsetPartitions pins the shard contract: contiguous Offset
// slices of a seed space compute exactly the trials the unsharded sweep
// would, so concatenating shard results in shard order reproduces the
// unsharded sweep bit for bit.
func TestSweepOffsetPartitions(t *testing.T) {
	const n, trials = 8, 21
	spec := poolConsensusSpec(t, n, nil)
	base := runProtocolDigest(t, Sweep{Trials: trials, Workers: 1, Seed: 11}, spec)
	var merged protocolDigest
	for _, shard := range []struct{ lo, hi int }{{0, 8}, {8, 16}, {16, trials}} {
		d := runProtocolDigest(t, Sweep{Trials: shard.hi - shard.lo, Offset: shard.lo, Workers: 2, Seed: 11}, spec)
		merged.Work = append(merged.Work, d.Work...)
		merged.Steps = append(merged.Steps, d.Steps...)
		merged.Decided = append(merged.Decided, d.Decided...)
		merged.Outputs = append(merged.Outputs, d.Outputs...)
	}
	if !reflect.DeepEqual(merged, base) {
		t.Error("merged shard digests diverged from the unsharded sweep")
	}
}

// TestSweepErrorIndexDeterministic pins deterministic failure attribution
// on pooled sessions: a per-trial error (bad input arity) surfaces as the
// same "harness: trial N" error at any worker count.
func TestSweepErrorIndexDeterministic(t *testing.T) {
	const n, trials, victim = 4, 12, 9
	spec := cellObjectSpec(n, nil)
	spec.Inputs = func(tr Trial) []value.Value {
		if tr.Index == victim {
			return make([]value.Value, n+1) // wrong arity: in.set must reject
		}
		return []value.Value{value.Value(tr.Index % 2)}
	}
	want := fmt.Sprintf("harness: trial %d:", victim)
	for _, workers := range []int{1, 2, 3} {
		err := SweepObject(Sweep{Trials: trials, Workers: workers, Seed: 3}, spec, nil)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("workers=%d: error %v, want one containing %q", workers, err, want)
		}
	}
}

// TestSweepObjectDeterministicAcrossWorkerCounts is the per-trial
// object-sweep counterpart of TestSweepDeterministicAcrossWorkerCounts:
// every trial's work and outputs are identical at 1, 2, 3, or 4 workers.
func TestSweepObjectDeterministicAcrossWorkerCounts(t *testing.T) {
	const n, trials = 4, 25
	spec := cellObjectSpec(n, nil)
	digest := func(workers int) ([]int, [][]value.Value) {
		works := make([]int, trials)
		outs := make([][]value.Value, trials)
		err := SweepObject(Sweep{Trials: trials, Workers: workers, Seed: 7}, spec, func(tr Trial, run *ObjectRun) {
			works[tr.Index] = run.Result.TotalWork
			outs[tr.Index] = run.Outputs()
		})
		if err != nil {
			t.Fatal(err)
		}
		return works, outs
	}
	baseWorks, baseOuts := digest(1)
	for _, workers := range []int{2, 3, 4} {
		works, outs := digest(workers)
		if !reflect.DeepEqual(works, baseWorks) || !reflect.DeepEqual(outs, baseOuts) {
			t.Errorf("workers=%d: object sweep diverged from the 1-worker sweep", workers)
		}
	}
}

func TestSweepZeroTrials(t *testing.T) {
	called := false
	err := RunTrials(Sweep{Trials: 0, Seed: 1},
		func(ctx context.Context, tr Trial) (int, error) { called = true; return 0, nil },
		func(tr Trial, r int) { called = true })
	if err != nil || called {
		t.Fatalf("zero-trial sweep: err=%v called=%v", err, called)
	}
}

// TestRunObjectCancelled pins the context plumbing end to end: a single
// hung execution stops promptly when its context expires.
func TestRunObjectCancelled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	file := register.NewFile()
	_, err := RunObject(spinObject(file), ObjectConfig{
		N: 2, File: file, Inputs: []value.Value{0, 1},
		Scheduler: sched.NewLaggard(), Seed: 1, Context: ctx,
	})
	if !errors.Is(err, exec.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
}

// TestInputsSingleProcessSingleInput pins the N == 1 semantics of
// ObjectConfig.inputs(): one input for one process is that process's input —
// the "length N" rule and the "broadcast one value" rule coincide, and
// neither errors nor duplicates the slice.
func TestInputsSingleProcessSingleInput(t *testing.T) {
	file := register.NewFile()
	r := ratifier.NewBinary(file, 1)
	run, err := RunObject(r, ObjectConfig{
		N: 1, File: file, Inputs: []value.Value{1}, Scheduler: sched.NewRoundRobin(), Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Decisions[0].Decided || run.Decisions[0].V != 1 {
		t.Fatalf("solo decision %s, want decided 1", run.Decisions[0])
	}
	// Zero inputs is an error even when N == 1.
	file2 := register.NewFile()
	r2 := ratifier.NewBinary(file2, 1)
	if _, err := RunObject(r2, ObjectConfig{N: 1, File: file2, Scheduler: sched.NewRoundRobin()}); err == nil {
		t.Fatal("expected error for 0 inputs with N=1")
	}
	// Non-positive N is rejected before the simulator.
	if _, err := RunObject(r2, ObjectConfig{N: 0, File: file2, Scheduler: sched.NewRoundRobin()}); err == nil {
		t.Fatal("expected error for N=0")
	}
}
