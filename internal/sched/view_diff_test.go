package sched_test

// Differential tests of the memory-seeing view: the attacks' sparse phase
// tracker against the copy-and-scan tracker it replaced, and View.Changed
// against a diff of consecutive Memory snapshots, on every view of real
// executions and on hand-built view sequences; and of the schedulers'
// picks against the scans they replaced, on every view of real executions.

import (
	"fmt"
	"testing"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
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

// runChain runs the fixed-file binary protocol on one sim session, one
// trial per seed, so the session's clearing of the view between trials is
// covered too.
func runChain(n int, cfg exec.Config, seeds int) error {
	file := register.NewFile()
	proto, err := recipe.Spec{N: n, M: 2, FastPath: true}.Build(file)
	if err != nil {
		return err
	}
	cfg.File = file
	sess, err := sim.Backend().NewSession(cfg, func(e core.Env) value.Value {
		out, _ := proto.Run(e, value.Value(e.PID()%2))
		return out
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		if _, err := sess.Run(nil, seed); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// runUnbounded runs the lazily built protocol, whose file grows mid-run, on
// a fresh file and session per seed.
func runUnbounded(n int, cfg exec.Config, seeds int) error {
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		file := register.NewFile()
		u, err := core.NewUnbounded(n, file, binaryRatifier,
			func(f *register.File, i int) core.Object { return conciliator.NewImpatient(f, n, i) })
		if err != nil {
			return err
		}
		cfg.File = file
		sess, err := sim.Backend().NewSession(cfg, func(e core.Env) value.Value { return u.Run(e, value.Value(e.PID()%2)) })
		if err != nil {
			return err
		}
		_, err = sess.Run(nil, seed)
		sess.Close()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

// checker is a scheduler that checks every view it is shown and counts its
// mismatches.
type checker interface {
	sched.Scheduler
	report() (steps, mismatches int, first string)
}

// runAttackGrid runs a fresh checker from each of mks over attacked
// consensus executions: both protocol shapes, every register model, with
// and without crash and lost-coin faults. Every mismatch fails the test.
func runAttackGrid(t *testing.T, mks []func() checker) {
	t.Helper()
	protocols := []struct {
		name string
		run  func(n int, cfg exec.Config, seeds int) error
	}{{"chain", runChain}, {"unbounded", runUnbounded}}
	plans := []*fault.Plan{nil, fault.New(fault.Crash(0, 40), fault.LoseCoin(1, 1, 3))}
	models := []register.Semantics{register.Atomic, register.Regular, register.Interposed}
	seeds := map[int]int{2: 40, 4: 30, 8: 20, 32: 12}
	if raceEnabled {
		// The race detector slows every step ~25x; the grid keeps its
		// shape, with fewer seeds.
		seeds = map[int]int{2: 4, 4: 3, 8: 2, 32: 1}
	}
	for _, proto := range protocols {
		for _, n := range []int{2, 4, 8, 32} {
			for _, mk := range mks {
				for _, plan := range plans {
					for _, m := range models {
						d := mk()
						cfg := exec.Config{N: n, Scheduler: d, Registers: m, Faults: plan, MaxSteps: 1 << 20}
						name := fmt.Sprintf("%s/n=%d/%s/%v/faults=%v", proto.name, n, d.Name(), m, plan)
						if err := proto.run(n, cfg, seeds[n]); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if steps, mismatches, first := d.report(); mismatches > 0 {
							t.Errorf("%s: %d mismatches in %d steps; first: %s", name, mismatches, steps, first)
						}
					}
				}
			}
		}
	}
}

func (d *diffScheduler) report() (int, int, string) { return d.steps, d.mismatches, d.first }

// TestConcTrackerMatchesCopyAndScan compares the trackers and the Changed
// record at every step of the attack grid.
func TestConcTrackerMatchesCopyAndScan(t *testing.T) {
	var all []*diffScheduler
	diff := func(inner func() sched.Scheduler) func() checker {
		return func() checker {
			d := &diffScheduler{inner: inner()}
			all = append(all, d)
			return d
		}
	}
	runAttackGrid(t, []func() checker{
		diff(func() sched.Scheduler { return sched.NewFirstMoverAttack() }),
		diff(func() sched.Scheduler { return sched.NewEagerWriteAttack() }),
	})
	var steps, endgame, changes int
	for _, d := range all {
		steps += d.steps
		endgame += d.endgame
		changes += d.changes
	}
	t.Logf("%d steps compared (%d in the endgame, %d with a changed register)", steps, endgame, changes)
	if endgame == 0 || changes == 0 {
		t.Fatal("no step reached the endgame or changed a register: the comparison is vacuous")
	}
}

// pickScheduler plays pairs of a scheduler and the scan-based reference it
// replaced, and checks every view it is shown: each reference must pick
// what its scheduler picks, and the view's index of pending operations by
// kind must equal one rebuilt from Pending. The pairs' schedulers take
// turns, one execution each, at picking the steps, so every pair steers
// executions and is checked on the views of all of them. Views are built
// at power, which may exceed the schedulers' own.
type pickScheduler struct {
	pairs []pickState
	power sched.Power
	// drive is the pair whose scheduler picks this execution's steps.
	drive, execs int

	steps, picks, mismatches int
	first                    string
	// indexed counts views whose index holds at least one pid.
	indexed int
}

// pickState is one pair of a pickScheduler, with a copy each of the
// execution's stream, so a random pick draws the same number in both.
type pickState struct {
	cur, ref       sched.Scheduler
	curSrc, refSrc xrand.Source
}

func (d *pickScheduler) Next(v *sched.View) int {
	d.steps++
	if msg := indexMismatch(v); msg != "" {
		d.mismatch("step %d: %s", v.Step, msg)
	}
	for k := sched.OpRead; k <= sched.OpCollect; k++ {
		if v.CountPending(k) > 0 {
			d.indexed++
			break
		}
	}
	pick := -1
	for i := range d.pairs {
		p := &d.pairs[i]
		got, want := p.cur.Next(v), p.ref.Next(v)
		if got != want {
			d.mismatch("step %d: %s picked %d, the scan picked %d", v.Step, p.cur.Name(), got, want)
		}
		if i == d.drive {
			pick = got
		}
	}
	d.picks += len(d.pairs)
	return pick
}

func (d *pickScheduler) mismatch(format string, args ...any) {
	d.mismatches++
	if d.first == "" {
		d.first = fmt.Sprintf(format, args...)
	}
}

func (d *pickScheduler) report() (int, int, string) { return d.steps, d.mismatches, d.first }

func (d *pickScheduler) Seed(src *xrand.Source) {
	d.drive = d.execs % len(d.pairs)
	d.execs++
	for i := range d.pairs {
		p := &d.pairs[i]
		p.curSrc, p.refSrc = *src, *src
		p.cur.Seed(&p.curSrc)
		p.ref.Seed(&p.refSrc)
	}
}

func (d *pickScheduler) Name() string {
	name := "pick/" + d.pairs[0].cur.Name()
	if len(d.pairs) > 1 {
		name += fmt.Sprintf(" and %d more", len(d.pairs)-1)
	}
	return name
}

func (d *pickScheduler) MinPower() sched.Power { return d.power }

// indexMismatch checks the view's index against a rebuild from Pending: for
// each kind, the walk must meet exactly the runnable pids whose pending op
// has it, in ascending order, and the count must be theirs. It returns ""
// when they agree.
func indexMismatch(v *sched.View) string {
	for k := sched.OpRead; k <= sched.OpCollect; k++ {
		count, next := 0, v.NextPending(k, 0)
		for _, pid := range v.Runnable {
			if v.Pending[pid].Kind != k {
				continue
			}
			if next != pid {
				return fmt.Sprintf("%v index walks to pid %d, Pending has pid %d next", k, next, pid)
			}
			count++
			next = v.NextPending(k, pid+1)
		}
		if next >= 0 {
			return fmt.Sprintf("%v index holds pid %d, which has no such pending op", k, next)
		}
		if c := v.CountPending(k); c != count {
			return fmt.Sprintf("%v index counts %d, Pending has %d", k, c, count)
		}
	}
	return ""
}

// powers lists the four adversary classes, weakest first.
var powers = []sched.Power{sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive}

// pickPair is a scheduler and the scan-based reference it replaced.
type pickPair struct{ cur, ref func() sched.Scheduler }

// pickGroup is pairs that one pickScheduler plays on views built at power.
type pickGroup struct {
	power sched.Power
	pairs []pickPair
}

// runPickGrid runs one pickScheduler per group over the attack grid and
// fails if no view carried an indexed pid.
func runPickGrid(t *testing.T, groups []pickGroup) {
	t.Helper()
	var all []*pickScheduler
	var mks []func() checker
	for _, g := range groups {
		mks = append(mks, func() checker {
			d := &pickScheduler{power: g.power}
			for _, p := range g.pairs {
				d.pairs = append(d.pairs, pickState{cur: p.cur(), ref: p.ref()})
			}
			all = append(all, d)
			return d
		})
	}
	runAttackGrid(t, mks)
	var steps, picks, indexed int
	for _, d := range all {
		steps += d.steps
		picks += d.picks
		indexed += d.indexed
	}
	t.Logf("%d picks compared on %d views (%d with an indexed pid)", picks, steps, indexed)
	if indexed == 0 {
		t.Fatal("no view carried an indexed pid: the comparison is vacuous")
	}
}

// TestIndexedPicksMatchScans plays the schedulers that read the view's
// index of pending operations by kind, keep a cursor, or count nothing,
// against the scans they replaced, each steering its own executions, on
// every view of the attack grid: the attacks at their own power, and
// Laggard and Frontrunner at all four, so their picks are checked on views
// with and without an index.
func TestIndexedPicksMatchScans(t *testing.T) {
	solo := func(power sched.Power, cur, ref func() sched.Scheduler) pickGroup {
		return pickGroup{power, []pickPair{{cur, ref}}}
	}
	groups := []pickGroup{
		solo(sched.LocationOblivious, func() sched.Scheduler { return sched.NewFirstMoverAttack() },
			func() sched.Scheduler { return &sched.ScanFirstMoverAttack{} }),
		solo(sched.LocationOblivious, func() sched.Scheduler { return sched.NewEagerWriteAttack() },
			func() sched.Scheduler { return &sched.ScanEagerWriteAttack{} }),
	}
	for _, power := range powers {
		groups = append(groups,
			solo(power, func() sched.Scheduler { return sched.NewLaggard() },
				func() sched.Scheduler { return &sched.ScanLaggard{} }),
			solo(power, func() sched.Scheduler { return sched.NewFrontrunner() },
				func() sched.Scheduler { return &sched.ScanFrontrunner{} }))
	}
	runPickGrid(t, groups)
}

// TestParametricMatchesScan plays Parametric against ScanParametric on every
// view of the attack grid, over a grid of configs at each of the four
// powers: every base policy, with and without a phase, each with no rule
// and with one always rule per action the power admits. The phase's focus,
// 3, leaves the off-burst run empty at n=2, so the fallback to all of
// Runnable is played too. The configs of one power, 30 to 90 of them, play
// in one group, so the grid builds each protocol once per power and cell.
func TestParametricMatchesScan(t *testing.T) {
	var groups []pickGroup
	for _, power := range powers {
		rules := [][]sched.ParamRule{nil}
		for _, a := range sched.ActsFor(power) {
			rules = append(rules, []sched.ParamRule{{When: sched.CondAlways, Do: a}})
		}
		g := pickGroup{power: power}
		for base := sched.BaseRoundRobin; base <= sched.BaseWeighted; base++ {
			for _, period := range []int{0, 5} {
				for _, r := range rules {
					cfg := sched.ParamConfig{Power: power, Base: base, Weights: []int{1, 3, 2}, Rules: r}
					if period > 0 {
						cfg.PhasePeriod, cfg.PhaseBurst, cfg.PhaseFocus = period, 2, 3
					}
					if _, err := sched.NewParametric(cfg); err != nil {
						t.Fatalf("%+v: %v", cfg, err)
					}
					g.pairs = append(g.pairs, pickPair{
						func() sched.Scheduler { p, _ := sched.NewParametric(cfg); return p },
						func() sched.Scheduler { return sched.NewScanParametric(cfg) }})
				}
			}
		}
		groups = append(groups, g)
	}
	runPickGrid(t, groups)
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
		h.SetOp(pid, sched.Op{})
		if k != 0 {
			h.SetOp(pid, sched.Op{Valid: true, Kind: k, Reg: -1, Val: value.None})
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
