package sim

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// impatientProg is the ImpatientFirstMoverConciliator loop written directly
// against the engine: the standard workload for differential runs because it
// exercises reads and probabilistic writes under every adversary class.
func impatientProg(r register.Reg, n int) Program {
	return func(e *Env) value.Value {
		v := value.Value(e.PID()%2 + 1)
		for k := 0; ; k++ {
			if u := e.Read(r); !u.IsNone() {
				return u
			}
			num := uint64(n)
			if k < 16 {
				if p := uint64(1) << uint(k); p < num {
					num = p
				}
			}
			e.ProbWrite(r, v, num, uint64(n))
		}
	}
}

// TestAtomicSemanticsDifferential pins that the semantics refactor did not
// fork the atomic path: at n ∈ {2, 16, 256} under one scheduler per
// adversary power class, an explicit Registers: Atomic one-shot run is
// bit-identical (outputs, per-process work, total work) to a pooled-engine
// run whose config leaves Registers at its zero value.
func TestAtomicSemanticsDifferential(t *testing.T) {
	mkScheds := map[string]func() sched.Scheduler{
		"round-robin":       func() sched.Scheduler { return sched.NewRoundRobin() },
		"stale-read-attack": func() sched.Scheduler { return sched.NewStaleReadAttack() },
		"first-mover":       func() sched.Scheduler { return sched.NewFirstMoverAttack() },
		"adaptive-spoiler":  func() sched.Scheduler { return sched.NewAdaptiveSpoiler() },
	}
	for _, n := range []int{2, 16, 256} {
		for name, mk := range mkScheds {
			file := register.NewFile()
			r := file.Alloc1("C0.r")
			oneShot, err := Run(Config{
				N: n, File: file, Scheduler: mk(), Seed: 42,
				Registers: register.Atomic,
			}, impatientProg(r, n))
			if err != nil {
				t.Fatalf("n=%d %s one-shot: %v", n, name, err)
			}

			file2 := register.NewFile()
			r2 := file2.Alloc1("C0.r")
			eng, err := NewEngine(Config{
				N: n, File: file2, Scheduler: mk(),
			}, impatientProg(r2, n))
			if err != nil {
				t.Fatalf("n=%d %s engine: %v", n, name, err)
			}
			if err := eng.Reset(42, nil); err != nil {
				t.Fatal(err)
			}
			pooled, err := eng.Run(nil)
			if err != nil {
				t.Fatalf("n=%d %s pooled: %v", n, name, err)
			}
			if oneShot.TotalWork != pooled.TotalWork {
				t.Errorf("n=%d %s: total work %d (one-shot) vs %d (pooled)", n, name, oneShot.TotalWork, pooled.TotalWork)
			}
			for pid := range oneShot.Outputs {
				if oneShot.Outputs[pid] != pooled.Outputs[pid] || oneShot.Work[pid] != pooled.Work[pid] {
					t.Errorf("n=%d %s pid %d: (%s, %d ops) vs (%s, %d ops)",
						n, name, pid, oneShot.Outputs[pid], oneShot.Work[pid], pooled.Outputs[pid], pooled.Work[pid])
				}
			}
			eng.Close()
		}
	}
}

// TestRegularStaleRead is the separation witness for regular registers: the
// stale-read attack fires a pending write over a register another process
// is mid-read on, then releases the read. Under Regular the overlapping
// read may resolve to the stale pre-write value (for some seed); under
// Atomic the identical schedule always returns the new value.
func TestRegularStaleRead(t *testing.T) {
	run := func(model register.Semantics, seed uint64) value.Value {
		file := register.NewFile()
		r := file.Alloc1("x")
		file.Init(r, 5)
		reader := func(e *Env) value.Value { return e.Read(r) }
		writer := func(e *Env) value.Value { e.Write(r, 9); return 0 }
		res, err := Run(Config{
			N: 2, File: file, Scheduler: sched.NewStaleReadAttack(), Seed: seed,
			Registers: model,
		}, reader, writer)
		if err != nil {
			t.Fatalf("%v seed %d: %v", model, seed, err)
		}
		return res.Outputs[0]
	}

	sawStale := false
	for seed := uint64(0); seed < 64; seed++ {
		if got := run(register.Atomic, seed); got != 9 {
			t.Fatalf("atomic read under overlap = %s, want 9 (seed %d)", got, seed)
		}
		switch got := run(register.Regular, seed); got {
		case 5:
			sawStale = true
		case 9:
		default:
			t.Fatalf("regular read = %s, want the old value 5 or the new value 9 (seed %d)", got, seed)
		}
	}
	if !sawStale {
		t.Error("no seed in [0,64) made the regular register return the stale value — the overlap resolution never fired")
	}
}

// TestRegularIsDeterministic: the old/new resolution is a pure function of
// (schedule, seed) — two runs of the same regular-register configuration
// are bit-identical.
func TestRegularIsDeterministic(t *testing.T) {
	run := func() *exec.Result {
		file := register.NewFile()
		r := file.Alloc1("C0.r")
		res, err := Run(Config{
			N: 8, File: file, Scheduler: sched.NewStaleReadAttack(), Seed: 17,
			Registers: register.Regular,
		}, impatientProg(r, 8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalWork != b.TotalWork {
		t.Fatalf("total work %d vs %d across identical regular runs", a.TotalWork, b.TotalWork)
	}
	for pid := range a.Outputs {
		if a.Outputs[pid] != b.Outputs[pid] {
			t.Fatalf("pid %d output %s vs %s across identical regular runs", pid, a.Outputs[pid], b.Outputs[pid])
		}
	}
}

// spySched is an adaptive-power round-robin that records what the view let
// it see about pending writes: it never *acts* on the information, so the
// schedule (and therefore the execution) is identical under every register
// model, isolating the view-masking contract.
type spySched struct {
	next        int
	sawVal      bool // a pending write's value was visible
	sawProb     bool // a pending probabilistic write's bias was visible
	sawInFlight bool // a pending write was marked in-flight
}

func (s *spySched) Next(v *sched.View) int {
	for _, pid := range v.Runnable {
		op := v.Pending[pid]
		if op.Kind == sched.OpWrite || op.Kind == sched.OpProbWrite {
			if !op.Val.IsNone() {
				s.sawVal = true
			}
			if op.ProbDen != 0 {
				s.sawProb = true
			}
			if op.InFlight {
				s.sawInFlight = true
			}
		}
	}
	for i := 0; i < v.N; i++ {
		pid := (s.next + i) % v.N
		if v.Pending[pid].Valid {
			s.next = (pid + 1) % v.N
			return pid
		}
	}
	return v.Runnable[0]
}

func (s *spySched) Seed(*xrand.Source) { s.next = 0 }
func (s *spySched) Name() string       { return "spy" }
func (s *spySched) MinPower() sched.Power {
	return sched.Adaptive
}

// TestInterposedBluntsAdversaryView pins the Attiya–Enea–Welch blunting:
// under Interposed an adaptive adversary no longer sees pending write values
// or probabilistic-write biases (only the in-flight marker), while the reads
// themselves stay atomic — the spy's passive schedule produces identical
// outputs under both models.
func TestInterposedBluntsAdversaryView(t *testing.T) {
	run := func(model register.Semantics) (*exec.Result, *spySched) {
		file := register.NewFile()
		r := file.Alloc1("C0.r")
		spy := &spySched{}
		res, err := Run(Config{
			N: 4, File: file, Scheduler: spy, Seed: 3,
			Registers: model,
		}, impatientProg(r, 4))
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		return res, spy
	}

	atomicRes, atomicSpy := run(register.Atomic)
	interRes, interSpy := run(register.Interposed)

	if !atomicSpy.sawVal || !atomicSpy.sawProb {
		t.Error("adaptive spy saw no pending write values/biases under Atomic — the workload never armed the attack surface")
	}
	if atomicSpy.sawInFlight {
		t.Error("InFlight marked under Atomic, where the invocation window is unobservable by definition")
	}
	if interSpy.sawVal {
		t.Error("interposed view leaked a pending write value to the adversary")
	}
	if interSpy.sawProb {
		t.Error("interposed view leaked a probabilistic-write bias to the adversary")
	}
	if !interSpy.sawInFlight {
		t.Error("interposed view never marked a pending write in-flight")
	}

	// Same passive schedule, atomic reads either way: identical executions.
	if atomicRes.TotalWork != interRes.TotalWork {
		t.Errorf("total work %d (atomic) vs %d (interposed) under an identical schedule", atomicRes.TotalWork, interRes.TotalWork)
	}
	for pid := range atomicRes.Outputs {
		if atomicRes.Outputs[pid] != interRes.Outputs[pid] {
			t.Errorf("pid %d output %s (atomic) vs %s (interposed) under an identical schedule", pid, atomicRes.Outputs[pid], interRes.Outputs[pid])
		}
	}
}

// TestEngineRejectsUnknownSemantics: a garbage model is a config error, not
// silent atomic behavior.
func TestEngineRejectsUnknownSemantics(t *testing.T) {
	file := register.NewFile()
	file.Alloc1("x")
	_, err := NewEngine(Config{
		N: 1, File: file, Scheduler: sched.NewRoundRobin(), Registers: register.Semantics(9),
	}, func(e *Env) value.Value { return 0 })
	if err == nil {
		t.Fatal("NewEngine accepted an unknown register model")
	}
}
