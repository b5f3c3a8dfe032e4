package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registry has %d experiments, want 23", len(all))
	}
	if sim, live := len(ByBackend(false)), len(ByBackend(true)); sim != 19 || live != 4 {
		t.Fatalf("backend split sim=%d live=%d, want 19/4", sim, live)
	}
	seen := make(map[string]bool)
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("E6"); !ok {
		t.Fatal("ByID(E6) missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) found a ghost")
	}
}

// finalSteps records the step count of every sweep's final progress
// snapshot.
type finalSteps []int64

func (f *finalSteps) Emit(p obs.Snapshot) {
	if p.Final {
		*f = append(*f, p.Steps)
	}
}

// TestEveryExperimentRunsTiny executes each experiment at a minimal trial
// count and validates the table structure. Correctness of the *values* is
// asserted by the per-module tests; this guards the harness plumbing,
// including the meter: Config.Meter reaches every execution, so each
// sweep's final snapshot, which reports the meter, counts more steps than
// the sweep before it.
func TestEveryExperimentRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all experiments")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var finals finalSteps
			table := e.Run(Config{Trials: 2, Seed: 7, Meter: &obs.Meter{}, Reporter: obs.NewReporter(&finals, 0)})
			prev := int64(0)
			for i, steps := range finals {
				if steps <= prev {
					t.Errorf("sweep %d ended with the meter at %d steps (%d after the sweep before): its executions never ticked the meter", i, steps, prev)
				}
				prev = steps
			}
			if table.ID != e.ID {
				t.Fatalf("table id %q", table.ID)
			}
			if len(table.Columns) == 0 || len(table.Rows) == 0 {
				t.Fatalf("empty table: %+v", table)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Fatalf("ragged row %v", row)
				}
			}
			if table.PaperClaim == "" {
				t.Fatal("missing paper claim")
			}
			s := table.String()
			if !strings.Contains(s, e.ID) || !strings.Contains(s, table.Columns[0]) {
				t.Fatalf("rendering broken:\n%s", s)
			}
			md := table.Markdown()
			if !strings.HasPrefix(md, "### "+e.ID) || !strings.Contains(md, "|") {
				t.Fatalf("markdown broken:\n%s", md)
			}
		})
	}
}

func TestE1MeetsPaperBoundAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	table := E1ConciliatorAgreement(Config{Trials: 120, Seed: 3})
	for _, row := range table.Rows {
		if row[len(row)-1] == "NO" {
			t.Errorf("row below paper bound: %v", row)
		}
	}
}

func TestE4AllPropertiesOK(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	table := E4RatifierSpaceWork(Config{Trials: 5, Seed: 3})
	for _, row := range table.Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("ratifier property failure: %v", row)
		}
	}
}

func TestE5OptimalityExact(t *testing.T) {
	table := E5QuorumOptimality(Config{Trials: 1, Seed: 1})
	for _, row := range table.Rows {
		if row[1] != row[2] {
			t.Errorf("pool does not realize the Bollobás maximum: %v", row)
		}
		if !strings.HasPrefix(row[3], "1.000000") {
			t.Errorf("full pool Bollobás sum not 1: %v", row)
		}
	}
	for _, n := range table.Notes {
		if strings.Contains(n, "FAILED") {
			t.Errorf("verification note: %s", n)
		}
	}
}

func TestTablePanicsOnRaggedRow(t *testing.T) {
	table := &Table{ID: "X", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	table.AddRow("only-one")
}

// TestExperimentDeterministicAcrossWorkers renders the same experiment at
// different worker counts: the parallel trial engine merges per-trial
// results in trial order, so the tables must be byte-identical.
func TestExperimentDeterministicAcrossWorkers(t *testing.T) {
	ref := E1ConciliatorAgreement(Config{Trials: 6, Seed: 11, Workers: 1}).String()
	for _, w := range []int{4, 16} {
		if got := E1ConciliatorAgreement(Config{Trials: 6, Seed: 11, Workers: w}).String(); got != ref {
			t.Fatalf("workers=%d table differs:\n%s\n--- want ---\n%s", w, got, ref)
		}
	}
}

// TestExperimentCancellation checks that a cancelled context aborts an
// experiment (surfaced as the documented panic from mustSweep) on each kind
// of cell: E1's object sweeps, E8's two object sweeps over the same trials,
// and E14's step-budget cells on the robust engine.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"E1", "E8", "E14"} {
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected cancellation panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "cancel") {
					t.Fatalf("panic %q does not mention cancellation", msg)
				}
			}()
			e.Run(Config{Trials: 50, Seed: 1, Ctx: ctx})
		})
	}
}

// TestExperimentCancelledMidRunClosesPools: an experiment whose context
// expires mid-sweep panics out of its adversary loop, and the session pool
// the loop kept is closed on the way out, so its sessions' parked process
// coroutines exit. After E1 (object pools) and E6 (protocol pools) are each
// cancelled partway, the goroutine count returns to where it was.
func TestExperimentCancelledMidRunClosesPools(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments until their deadlines")
	}
	settle := func() int {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	base := runtime.NumGoroutine()
	for prev := -1; base != prev; {
		prev, base = base, settle()
	}
	for _, id := range []string{"E1", "E6"} {
		e, _ := ByID(id)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), context.DeadlineExceeded.Error()) {
					t.Errorf("%s: recovered %v, want the deadline's panic", id, r)
				}
			}()
			e.Run(Config{Seed: 1, Workers: 2, Ctx: ctx})
		}()
		cancel()
	}
	got := settle()
	for deadline := time.Now().Add(5 * time.Second); got > base && time.Now().Before(deadline); {
		got = settle()
	}
	if got > base {
		t.Errorf("%d goroutines after two cancelled experiments, want at most the %d before", got, base)
	}
}

func TestConfigTrialsDefault(t *testing.T) {
	if got := (Config{}).trials(50); got != 50 {
		t.Fatalf("default trials %d", got)
	}
	if got := (Config{Trials: 7}).trials(50); got != 7 {
		t.Fatalf("override trials %d", got)
	}
}

func TestMixedInputs(t *testing.T) {
	in := mixedInputs(4, 2, 1)
	want := []int64{1, 0, 1, 0}
	for i, v := range in {
		if int64(v) != want[i] {
			t.Fatalf("mixedInputs = %v", in)
		}
	}
	// A cell's input table: row k is mixedInputs(n, m, k), and trial i
	// reads row i mod m, whose inputs are mixedInputs(n, m, i).
	for _, c := range []struct{ n, m int }{{4, 2}, {5, 1}, {3, 7}, {12, 12}} {
		table := newInputTable(c.n, c.m)
		if len(table) != c.m {
			t.Fatalf("n=%d m=%d: %d rows", c.n, c.m, len(table))
		}
		for k, row := range table {
			if !slices.Equal(row, mixedInputs(c.n, c.m, k)) {
				t.Fatalf("n=%d m=%d: row %d = %v, want %v", c.n, c.m, k, row, mixedInputs(c.n, c.m, k))
			}
		}
		for i := 0; i < 3*c.m+2; i++ {
			got := table.of(harness.Trial{Index: i})
			if &got[0] != &table[i%c.m][0] || !slices.Equal(got, mixedInputs(c.n, c.m, i)) {
				t.Fatalf("n=%d m=%d: trial %d reads %v, want row %d", c.n, c.m, i, got, i%c.m)
			}
		}
	}
}

// sameHist fails t unless got and want marshal to the same JSON, which
// holds every bucket, so the comparison is exact.
func sameHist(t *testing.T, name string, got, want *obs.Hist) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Errorf("%s histogram differs:\n%s\n%s", name, gj, wj)
	}
}

// TestConsensusSweepReturnsWorkHistograms pins the histograms that
// consensusSweep returns: fresh ones per call, holding every trial's total
// work and maximum individual work, equal to a hand fold of the same
// trials, whether the fold is nil or not. Both sweeps run on one kept pool.
func TestConsensusSweepReturnsWorkHistograms(t *testing.T) {
	const n, trials = 8, 20
	cfg := Config{Seed: 5, Workers: 2}
	mk := func() sched.Scheduler { return sched.NewUniformRandom() }
	pool := cfg.spec(n, 2).pool()
	defer pool.Close()
	steps, work := consensusSweep(cfg.sweep(trials), pool, mk, nil)
	var wantSteps, wantWork obs.Hist
	steps2, work2 := consensusSweep(cfg.sweep(trials), pool, mk,
		func(_ harness.Trial, run *harness.ProtocolRun) {
			wantSteps.AddInt(run.Result.TotalWork)
			wantWork.AddInt(slices.Max(run.Result.Work))
		})
	if steps == steps2 || work == work2 {
		t.Fatal("consensusSweep returned the same histograms from two calls")
	}
	if steps.N() != trials || work.N() != trials {
		t.Fatalf("histograms hold %d and %d trials, want %d", steps.N(), work.N(), trials)
	}
	sameHist(t, "steps", steps, &wantSteps)
	sameHist(t, "work", work, &wantWork)
	sameHist(t, "folded sweep's steps", steps2, &wantSteps)
	sameHist(t, "folded sweep's work", work2, &wantWork)
}

// TestConciliatorSweepReturnsWorkHistograms pins conciliatorSweep's
// histograms: one observation per trial, individual work never above
// total work, and the same bytes whether a fold takes the agreement flags
// or the fold is nil. Both sweeps run on one kept pool.
func TestConciliatorSweepReturnsWorkHistograms(t *testing.T) {
	const n, trials = 8, 20
	cfg := Config{Seed: 9, Workers: 2}
	mk := func() sched.Scheduler { return sched.NewUniformRandom() }
	pool := conciliatorPool(n, conciliator.GrowthDoubling, false)
	defer pool.Close()
	var agree stats.Tally
	steps, work := conciliatorSweep(cfg.sweep(trials), pool, mk, agree.Add)
	if agree.Trials != trials {
		t.Fatalf("fold saw %d trials, want %d", agree.Trials, trials)
	}
	if steps.N() != trials || work.N() != trials {
		t.Fatalf("histograms hold %d and %d trials, want %d", steps.N(), work.N(), trials)
	}
	if work.Max() > steps.Max() || work.Sum() > steps.Sum() || work.Min() < 1 {
		t.Fatalf("individual work %s against total work %s", work, steps)
	}
	steps2, work2 := conciliatorSweep(cfg.sweep(trials), pool, mk, nil)
	sameHist(t, "steps", steps2, steps)
	sameHist(t, "work", work2, work)
}
