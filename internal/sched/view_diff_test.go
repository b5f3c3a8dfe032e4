package sched_test

// Differential tests of the memory-seeing view: the attacks' sparse phase
// tracker against the copy-and-scan tracker it replaced, and View.Changed
// against a diff of consecutive Memory snapshots, on every view of real
// executions and on hand-built view sequences.

import (
	"fmt"
	"testing"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/sim"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// memoryDiff is what an adversary holding two consecutive snapshots sees
// change: the one cell both hold that differs, with its value in prev.
// Cells past prev's end appeared by allocation, not by a write. ok is false
// if more than one cell differs, which a single step cannot cause.
func memoryDiff(prev, cur []value.Value) (ch sched.Change, ok bool) {
	for i, old := range prev {
		if cur[i] == old {
			continue
		}
		if ch.Valid {
			return ch, false
		}
		ch = sched.Change{Valid: true, Reg: register.Reg(i), Old: old}
	}
	return ch, true
}

// diffScheduler plays inner and checks every view it is shown: Changed
// must equal the diff of the last two Memory copies, and the sparse tracker
// must report the reference tracker's phase and value.
type diffScheduler struct {
	inner sched.Scheduler
	cur   sched.ConcTracker
	ref   sched.CopyScanTracker
	prev  []value.Value

	steps, endgame, changes, mismatches int
	first                               string
}

func (d *diffScheduler) Next(v *sched.View) int {
	d.steps++
	want, ok := memoryDiff(d.prev, v.Memory)
	if !ok || v.Changed != want {
		d.mismatch("step %d: Changed = %+v, snapshot diff = %+v (single cell: %v)", v.Step, v.Changed, want, ok)
	}
	if v.Changed.Valid {
		d.changes++
	}
	d.prev = append(d.prev[:0], v.Memory...)
	phase, val := d.cur.Observe(v)
	wantPhase, wantVal := d.ref.Observe(v)
	if phase != wantPhase || val != wantVal {
		d.mismatch("step %d: tracker phase %d value %v, copy-and-scan phase %d value %v", v.Step, phase, val, wantPhase, wantVal)
	}
	if wantPhase == sched.PhaseEndgame {
		d.endgame++
	}
	return d.inner.Next(v)
}

func (d *diffScheduler) mismatch(format string, args ...any) {
	d.mismatches++
	if d.first == "" {
		d.first = fmt.Sprintf(format, args...)
	}
}

func (d *diffScheduler) Seed(src *xrand.Source) {
	d.cur.Reset()
	d.ref.Reset()
	d.prev = d.prev[:0]
	d.inner.Seed(src)
}

func (d *diffScheduler) Name() string          { return "diff/" + d.inner.Name() }
func (d *diffScheduler) MinPower() sched.Power { return d.inner.MinPower() }

func binaryRatifier(f *register.File, i int) core.Object { return ratifier.NewBinary(f, i) }

// runChain runs the fixed-file binary protocol on one pooled engine, one
// trial per seed, so Engine.Reset's clearing of the view is covered too.
func runChain(n int, cfg sim.Config, plan *fault.Plan, seeds int) error {
	file := register.NewFile()
	proto, err := recipe.Spec{N: n, M: 2, FastPath: true}.Build(file)
	if err != nil {
		return err
	}
	cfg.File = file
	eng, err := sim.NewEngine(cfg, func(e *sim.Env) value.Value {
		out, _ := proto.Run(e, value.Value(e.PID()%2))
		return out
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		inj, err := fault.Compile(plan, n, seed)
		if err != nil {
			return err
		}
		if err := eng.Reset(seed, inj); err != nil {
			return err
		}
		if _, err := eng.Run(nil); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// runUnbounded runs the lazily built protocol, whose file grows mid-run, on
// a fresh file per seed.
func runUnbounded(n int, cfg sim.Config, plan *fault.Plan, seeds int) error {
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		file := register.NewFile()
		u, err := core.NewUnbounded(n, file, binaryRatifier,
			func(f *register.File, i int) core.Object { return conciliator.NewImpatient(f, n, i) })
		if err != nil {
			return err
		}
		inj, err := fault.Compile(plan, n, seed)
		if err != nil {
			return err
		}
		cfg.File, cfg.Seed, cfg.Faults = file, seed, inj
		if _, err := sim.Run(cfg, func(e *sim.Env) value.Value { return u.Run(e, value.Value(e.PID()%2)) }); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// TestConcTrackerMatchesCopyAndScan compares the trackers and the Changed
// record at every step of attacked consensus executions: both protocol
// shapes, every register model, with and without crash and lost-coin
// faults.
func TestConcTrackerMatchesCopyAndScan(t *testing.T) {
	attacks := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFirstMoverAttack() },
		func() sched.Scheduler { return sched.NewEagerWriteAttack() },
	}
	protocols := []struct {
		name string
		run  func(n int, cfg sim.Config, plan *fault.Plan, seeds int) error
	}{{"chain", runChain}, {"unbounded", runUnbounded}}
	plans := []*fault.Plan{nil, fault.New(fault.Crash(0, 40), fault.LoseCoin(1, 1, 3))}
	models := []register.Semantics{register.Atomic, register.Regular, register.Interposed}
	seeds := map[int]int{2: 40, 4: 30, 8: 20, 32: 12}
	if raceEnabled {
		// The race detector slows every step ~25x; the grid keeps its
		// shape, with fewer seeds.
		seeds = map[int]int{2: 4, 4: 3, 8: 2, 32: 1}
	}

	var steps, endgame, changes int
	for _, proto := range protocols {
		for _, n := range []int{2, 4, 8, 32} {
			for _, mk := range attacks {
				for _, plan := range plans {
					for _, m := range models {
						d := &diffScheduler{inner: mk()}
						cfg := sim.Config{N: n, Scheduler: d, Registers: m, MaxSteps: 1 << 20}
						name := fmt.Sprintf("%s/n=%d/%s/%v/faults=%v", proto.name, n, d.inner.Name(), m, plan)
						if err := proto.run(n, cfg, plan, seeds[n]); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if d.mismatches > 0 {
							t.Errorf("%s: %d mismatches in %d steps; first: %s", name, d.mismatches, d.steps, d.first)
						}
						steps += d.steps
						endgame += d.endgame
						changes += d.changes
					}
				}
			}
		}
	}
	t.Logf("%d steps compared (%d in the endgame, %d with a changed register)", steps, endgame, changes)
	if endgame == 0 || changes == 0 {
		t.Fatal("no step reached the endgame or changed a register: the comparison is vacuous")
	}
}

// handView is a location-oblivious view over hand-built memory, shown to
// the sparse tracker and the copy-and-scan reference.
type handView struct {
	sched.View
	cur sched.ConcTracker
	ref sched.CopyScanTracker
}

func newHandView(mem ...value.Value) *handView {
	return &handView{View: sched.View{Power: sched.LocationOblivious, N: 2, Pending: make([]sched.Op, 2), Memory: mem}}
}

// set replaces the pending ops: one OpKind per pid, 0 for none.
func (h *handView) set(kinds ...sched.OpKind) {
	h.Runnable = h.Runnable[:0]
	for pid, k := range kinds {
		h.Pending[pid] = sched.Op{}
		if k != 0 {
			h.Pending[pid] = sched.Op{Valid: true, Kind: k, Reg: -1, Val: value.None}
			h.Runnable = append(h.Runnable, pid)
		}
	}
}

// write lands v in reg and reports it the way the engine does: a change
// only if the value differs.
func (h *handView) write(reg register.Reg, v value.Value) {
	h.Changed = sched.Change{}
	if old := h.Memory[reg]; old != v {
		h.Changed = sched.Change{Valid: true, Reg: reg, Old: old}
	}
	h.Memory[reg] = v
}

// step shows the view to both trackers and checks they agree with each
// other and with the expected phase and value; the next step starts with
// nothing changed.
func (h *handView) step(t *testing.T, what string, wantPhase int, wantVal value.Value) {
	t.Helper()
	phase, val := h.cur.Observe(&h.View)
	refPhase, refVal := h.ref.Observe(&h.View)
	if phase != refPhase || val != refVal {
		t.Fatalf("%s: tracker phase %d value %v, copy-and-scan phase %d value %v", what, phase, val, refPhase, refVal)
	}
	if phase != wantPhase || val != wantVal {
		t.Fatalf("%s: phase %d value %v, want phase %d value %v", what, phase, val, wantPhase, wantVal)
	}
	h.Changed = sched.Change{}
}

func TestConcTrackerHandBuiltViews(t *testing.T) {
	const (
		neutral = sched.PhaseNeutral
		pool    = sched.PhasePool
		endgame = sched.PhaseEndgame
		none    = value.None
	)
	read, prob := sched.OpRead, sched.OpProbWrite

	t.Run("cell grown after arming", func(t *testing.T) {
		// A lazily built stage Inits its registers to 0: the file grows by
		// a non-⊥ cell that no write reports.
		h := newHandView(none, none)
		h.set(prob, read)
		h.step(t, "arming", pool, none)
		h.Memory = append(h.Memory, 0)
		h.step(t, "grown", endgame, 0)
	})
	t.Run("change before arming is baseline", func(t *testing.T) {
		h := newHandView(none, none)
		h.set(read, read)
		h.step(t, "unarmed", neutral, none)
		h.write(1, 4)
		h.set(prob, read)
		h.step(t, "arming after a write", pool, none)
		h.write(0, 6)
		h.step(t, "first write after arming", endgame, 6)
	})
	t.Run("restored value is unchanged", func(t *testing.T) {
		h := newHandView(none, 2)
		h.set(prob, prob)
		h.step(t, "arming", pool, none)
		h.write(1, 3)
		h.step(t, "changed", endgame, 3)
		h.write(1, 2)
		h.step(t, "restored", pool, none)
		h.write(1, 5)
		h.step(t, "changed again", endgame, 5)
	})
	t.Run("lowest changed register wins", func(t *testing.T) {
		h := newHandView(none, none, none, none)
		h.set(prob, read)
		h.step(t, "arming", pool, none)
		h.write(3, 7)
		h.step(t, "high register", endgame, 7)
		h.write(1, 8)
		h.step(t, "lower register", endgame, 8)
		h.write(3, 9)
		h.step(t, "high register again", endgame, 8)
	})
	t.Run("fizzled round re-arms", func(t *testing.T) {
		h := newHandView(none, none)
		h.set(prob, read)
		h.step(t, "arming", pool, none)
		h.set(read, read)
		h.step(t, "fizzled", neutral, none)
		h.write(0, 1)
		h.step(t, "disarmed write", neutral, none)
		h.set(read, prob)
		h.step(t, "re-armed", pool, none)
		h.write(0, 2)
		h.step(t, "write after re-arming", endgame, 2)
	})
}
