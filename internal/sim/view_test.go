package sim

// Tests of the adversary-model contract: the runtime must reveal to each
// scheduler exactly what its power class permits (§2.1) — no more. A spy
// scheduler asserts on every view it receives.

import (
	"errors"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// spyScheduler checks every view against its declared power class.
type spyScheduler struct {
	power  sched.Power
	t      *testing.T
	inner  *sched.RoundRobin
	checks int
	// changes counts views that report a changed register.
	changes int
}

func (s *spyScheduler) Next(v *sched.View) int {
	s.checks++
	if v.Power != s.power {
		s.t.Errorf("view power %v, want %v", v.Power, s.power)
	}
	for pid, op := range v.Pending {
		if !op.Valid {
			continue
		}
		switch s.power {
		case sched.Oblivious:
			if op.Kind != 0 || op.Reg != -1 || !op.Val.IsNone() {
				s.t.Errorf("oblivious view leaked op info: pid %d %+v", pid, op)
			}
		case sched.ValueOblivious:
			if op.Kind == 0 {
				s.t.Errorf("value-oblivious view missing op kind: pid %d", pid)
			}
			if !op.Val.IsNone() {
				s.t.Errorf("value-oblivious view leaked write value: pid %d %+v", pid, op)
			}
		case sched.LocationOblivious:
			if op.Reg != -1 {
				s.t.Errorf("location-oblivious view leaked location: pid %d %+v", pid, op)
			}
			if op.Kind == sched.OpWrite && op.Val.IsNone() {
				s.t.Errorf("location-oblivious view hid write value: pid %d %+v", pid, op)
			}
		case sched.Adaptive:
			if op.Kind == 0 {
				s.t.Errorf("adaptive view missing op kind: pid %d", pid)
			}
		}
	}
	// The index of pending operations by kind holds exactly the valid
	// entries of each kind: none in an oblivious view, which has no kinds.
	for k := sched.OpRead; k <= sched.OpCollect; k++ {
		count := 0
		for _, op := range v.Pending {
			if op.Valid && op.Kind == k {
				count++
			}
		}
		if s.power == sched.Oblivious && (v.CountPending(k) != 0 || v.NextPending(k, 0) != -1) {
			s.t.Errorf("oblivious view indexes %d pending %v ops, the first at pid %d", v.CountPending(k), k, v.NextPending(k, 0))
		}
		if v.CountPending(k) != count {
			s.t.Errorf("%v view counts %d pending %v ops, Pending holds %d", s.power, v.CountPending(k), k, count)
		}
	}
	switch s.power {
	case sched.Oblivious, sched.ValueOblivious:
		if v.Memory != nil {
			s.t.Errorf("%v view leaked memory contents", s.power)
		}
		// The old value of a changed register is memory content.
		if v.Changed != (sched.Change{}) {
			s.t.Errorf("%v view leaked a changed register: %+v", s.power, v.Changed)
		}
	case sched.LocationOblivious, sched.Adaptive:
		if v.Memory == nil {
			s.t.Errorf("%v view missing memory contents", s.power)
		}
		if v.Changed.Valid {
			s.changes++
		}
	}
	return s.inner.Next(v)
}

func (s *spyScheduler) Seed(*xrand.Source) {}
func (s *spyScheduler) Name() string       { return "spy" }
func (s *spyScheduler) MinPower() sched.Power {
	return s.power
}

func TestViewsRespectPowerClasses(t *testing.T) {
	for _, power := range []sched.Power{
		sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive,
	} {
		spy := &spyScheduler{power: power, t: t, inner: sched.NewRoundRobin()}
		file := register.NewFile()
		r := file.Alloc1("x")
		_, err := runOnce(exec.Config{N: 3, File: file, Scheduler: spy}, 1,
			func(e core.Env) value.Value {
				e.Read(r)
				e.Write(r, value.Value(e.PID()))
				e.ProbWrite(r, 9, 1, 2)
				return e.Read(r)
			})
		if err != nil {
			t.Fatal(err)
		}
		if spy.checks == 0 {
			t.Fatalf("%v: scheduler never consulted", power)
		}
		if seesMemory := power == sched.LocationOblivious || power == sched.Adaptive; seesMemory != (spy.changes > 0) {
			t.Errorf("%v: %d views reported a changed register", power, spy.changes)
		}
	}
}

func TestViewRunnableMatchesPending(t *testing.T) {
	spyRan := 0
	spy := &spyScheduler{power: sched.Oblivious, t: t, inner: sched.NewRoundRobin()}
	file := register.NewFile()
	r := file.Alloc1("x")
	_, err := runOnce(exec.Config{N: 2, File: file, Scheduler: checkRunnable{spy, t, &spyRan}}, 1,
		func(e core.Env) value.Value { e.Read(r); return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if spyRan == 0 {
		t.Fatal("wrapper never ran")
	}
}

// checkRunnable asserts Runnable lists exactly the valid pending ops.
type checkRunnable struct {
	inner sched.Scheduler
	t     *testing.T
	ran   *int
}

func (c checkRunnable) Next(v *sched.View) int {
	*c.ran++
	seen := make(map[int]bool, len(v.Runnable))
	for _, pid := range v.Runnable {
		seen[pid] = true
		if !v.Pending[pid].Valid {
			c.t.Errorf("runnable pid %d has no valid pending op", pid)
		}
	}
	for pid, op := range v.Pending {
		if op.Valid && !seen[pid] {
			c.t.Errorf("pending pid %d missing from runnable", pid)
		}
	}
	return c.inner.Next(v)
}

func (c checkRunnable) Seed(s *xrand.Source)  { c.inner.Seed(s) }
func (c checkRunnable) Name() string          { return "check-runnable" }
func (c checkRunnable) MinPower() sched.Power { return c.inner.MinPower() }

// TestViewIndexClearedBetweenTrials: a trial cut short by the step limit
// leaves every process with a pending operation, so the next trial on the
// same session must start from an empty index of pending operations by
// kind; the spy checks the index against Pending on every view.
func TestViewIndexClearedBetweenTrials(t *testing.T) {
	for _, power := range []sched.Power{
		sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive,
	} {
		spy := &spyScheduler{power: power, t: t, inner: sched.NewRoundRobin()}
		file := register.NewFile()
		r := file.Alloc1("x")
		sess, err := Backend().NewSession(exec.Config{N: 3, File: file, Scheduler: spy, MaxSteps: 5},
			func(e core.Env) value.Value {
				for {
					e.Read(r)
					e.ProbWrite(r, 1, 1, 2)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			if _, err := sess.Run(nil, seed); !errors.Is(err, exec.ErrStepLimit) {
				t.Fatalf("%v seed %d: err = %v, want the step limit", power, seed, err)
			}
		}
		sess.Close()
		if spy.checks != 15 {
			t.Fatalf("%v: %d views, want 15", power, spy.checks)
		}
	}
}
