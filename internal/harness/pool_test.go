package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/sched"
)

// sweepRecord is what one sweep merged: each run's fields, in merge order,
// the sweep's histograms and its error.
type sweepRecord struct {
	runs        []string
	steps, work string
	err         error
}

// recordSweep runs one sweep of s on p under the adversary mk and records
// it; show renders a run while the merge holds it.
func recordSweep[R snapshot[R], S cell[R]](t *testing.T, p *Pool[R, S], s Sweep, mk func() sched.Scheduler, show func(R) string) sweepRecord {
	t.Helper()
	s.StepsHist, s.WorkHist = &obs.Hist{}, &obs.Hist{}
	var rec sweepRecord
	rec.err = p.Sweep(s, mk, func(tr Trial, run R) {
		rec.runs = append(rec.runs, fmt.Sprintf("%d: %s", tr.Index, show(run)))
	})
	for _, h := range []struct {
		dst  *string
		hist *obs.Hist
	}{{&rec.steps, s.StepsHist}, {&rec.work, s.WorkHist}} {
		b, err := json.Marshal(h.hist)
		if err != nil {
			t.Fatal(err)
		}
		*h.dst = string(b)
	}
	return rec
}

func showProtocolRun(run *ProtocolRun) string {
	r := run.Result
	return fmt.Sprint(r.Outputs, r.Halted, r.Crashed, r.Work, r.TotalWork, r.Steps, run.Decided, run.DecidedIdx, run.Violation)
}

func showObjectRun(run *ObjectRun) string {
	r := run.Result
	return fmt.Sprint(r.Outputs, r.Halted, r.Crashed, r.Work, r.TotalWork, r.Steps, run.Decisions)
}

// adversaryAxis is one sweep of a kept pool's sequence.
type adversaryAxis struct {
	name string
	mk   func() sched.Scheduler
	// limited marks a sweep whose trials all run out of steps, so the
	// strict sweep fails at its first trial.
	limited bool
}

var (
	roundRobin    = func() sched.Scheduler { return sched.NewRoundRobin() }
	uniformRandom = func() sched.Scheduler { return sched.NewUniformRandom() }
	firstMover    = func() sched.Scheduler { return sched.NewFirstMoverAttack() }
	priority      = func() sched.Scheduler { return sched.NewPriority(nil) }
)

// checkKeptPool runs axis, in order, as sweeps of the pool kept and each
// of them also on a fresh pool from open, and fails t unless each pair
// merged the same runs into the same histograms with the same error.
// builds counts the kept pool's Builds, which must not exceed the worker
// count.
func checkKeptPool[R snapshot[R], S cell[R]](t *testing.T, kept *Pool[R, S], open func() *Pool[R, S],
	builds *atomic.Int32, workers int, axis []adversaryAxis, show func(R) string) {
	t.Helper()
	const trials = 12
	s := Sweep{Trials: trials, Workers: workers, Seed: 21}
	for i, adv := range axis {
		got := recordSweep(t, kept, s, adv.mk, show)
		fresh := open()
		want := recordSweep(t, fresh, s, adv.mk, show)
		fresh.Close()
		if adv.limited != errors.Is(got.err, exec.ErrStepLimit) || (!adv.limited && len(got.runs) != trials) {
			t.Errorf("sweep %d (%s): merged %d runs, error %v; want a step-limit error: %v", i, adv.name, len(got.runs), got.err, adv.limited)
		}
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Errorf("sweep %d (%s): kept pool's error %v, fresh pool's %v", i, adv.name, got.err, want.err)
		}
		if len(got.runs) != len(want.runs) {
			t.Errorf("sweep %d (%s): kept pool merged %d runs, fresh pool %d", i, adv.name, len(got.runs), len(want.runs))
		}
		for j := range min(len(got.runs), len(want.runs)) {
			if got.runs[j] != want.runs[j] {
				t.Errorf("sweep %d (%s): kept pool merged %s, fresh pool %s", i, adv.name, got.runs[j], want.runs[j])
				break
			}
		}
		if got.steps != want.steps || got.work != want.work {
			t.Errorf("sweep %d (%s): kept pool's histograms %s %s, fresh pool's %s %s", i, adv.name, got.steps, got.work, want.steps, want.work)
		}
	}
	if b := builds.Load(); b > int32(workers) {
		t.Errorf("the kept pool built %d sessions over %d sweeps at %d workers, want at most %d", b, len(axis), workers, workers)
	}
}

// TestPoolSweepsMatchFreshPools: a pool kept across sweeps that differ only
// in their adversary runs each sweep as a fresh pool would. At 1 and 4
// workers, for protocol and object cells, every sweep of a sequence over
// one kept pool merges the same runs, in the same order, into the same
// histograms as the same sweep on a fresh pool. That holds too for a sweep
// that follows one whose trials ran out of steps, leaving their processes
// parked mid-execution: the step-limit cells set a budget that every
// round-robin trial exhausts and no priority trial reaches. Build runs at
// most once per worker across all the sweeps of a kept pool.
func TestPoolSweepsMatchFreshPools(t *testing.T) {
	const n = 4
	// At n=4 with these inputs, a protocol execution takes 60 to 76 steps
	// under round-robin and 23 under priority; a conciliator execution
	// takes 12 to 28 and 6 to 10.
	cells := []struct {
		name                string
		protoMax, objectMax int
		axis                []adversaryAxis
	}{
		{"plain", 0, 0, []adversaryAxis{
			{name: "uniform-random", mk: uniformRandom},
			{name: "first-mover-attack", mk: firstMover},
			{name: "round-robin", mk: roundRobin},
			{name: "uniform-random", mk: uniformRandom},
		}},
		{"step-limit", 40, 11, []adversaryAxis{
			{name: "round-robin", mk: roundRobin, limited: true},
			{name: "priority", mk: priority},
			{name: "round-robin", mk: roundRobin, limited: true},
			{name: "priority", mk: priority},
		}},
	}
	for _, c := range cells {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				var builds atomic.Int32
				pspec := cellProtocolSpec(t, n, func(cfg *ObjectConfig) { cfg.MaxSteps = c.protoMax })
				counted := pspec
				counted.Build = func() (*core.Protocol, ObjectConfig) {
					builds.Add(1)
					return pspec.Build()
				}
				kept := NewProtocolPool(counted)
				defer kept.Close()
				checkKeptPool(t, kept, func() *ProtocolPool { return NewProtocolPool(pspec) }, &builds, workers, c.axis, showProtocolRun)

				builds.Store(0)
				ospec := cellObjectSpec(n, func(cfg *ObjectConfig) { cfg.MaxSteps = c.objectMax })
				ocounted := ospec
				ocounted.Build = func() (core.Object, ObjectConfig) {
					builds.Add(1)
					return ospec.Build()
				}
				okept := NewObjectPool(ocounted)
				defer okept.Close()
				checkKeptPool(t, okept, func() *ObjectPool { return NewObjectPool(ospec) }, &builds, workers, c.axis, showObjectRun)
			})
		}
	}
}

// TestPoolSweepRules pins the sweeps a pool refuses, each with an error
// and before any trial runs: a sweep whose Meter differs from the pool's
// first sweep's, a sweep without an adversary after one that brought an
// adversary, and any sweep after Close. A refused sweep leaves the pool as
// it was: the next sweep with the first Meter and an adversary runs.
func TestPoolSweepRules(t *testing.T) {
	const n, trials = 4, 6
	pool := NewProtocolPool(cellProtocolSpec(t, n, nil))
	first, other := new(obs.Meter), new(obs.Meter)
	merged := 0
	merge := func(Trial, *ProtocolRun) { merged++ }
	sweep := func(m *obs.Meter, mk func() sched.Scheduler) error {
		return pool.Sweep(Sweep{Trials: trials, Workers: 2, Seed: 3, Meter: m}, mk, merge)
	}
	// A fresh pool's sweep without an adversary runs under the Build's.
	if err := sweep(first, nil); err != nil || merged != trials {
		t.Fatalf("first sweep: %v after %d merges", err, merged)
	}
	if err := sweep(first, roundRobin); err != nil || merged != 2*trials {
		t.Fatalf("second sweep: %v after %d merges", err, merged)
	}
	steps := first.Steps()
	refused := []struct {
		name  string
		meter *obs.Meter
		mk    func() sched.Scheduler
		want  string
	}{
		{"other meter", other, roundRobin, "Meter"},
		{"no meter", nil, roundRobin, "Meter"},
		{"no adversary after one", first, nil, "adversary"},
	}
	for _, r := range refused {
		if err := sweep(r.meter, r.mk); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: error %v, want one naming the %s", r.name, err, r.want)
		}
	}
	if merged != 2*trials || first.Steps() != steps || other.Steps() != 0 {
		t.Fatalf("refused sweeps merged %d runs and counted %d and %d steps, want none", merged-2*trials, first.Steps()-steps, other.Steps())
	}
	if err := sweep(first, uniformRandom); err != nil || merged != 3*trials || first.Steps() <= steps {
		t.Fatalf("sweep after the refusals: %v after %d merges", err, merged)
	}
	pool.Close()
	pool.Close()
	if err := sweep(first, roundRobin); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("sweep on a closed pool: error %v", err)
	}
}
