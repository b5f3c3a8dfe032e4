package sim

// Tests and benchmarks for the resettable engine that is the sim backend's
// session: trial reuse must be invisible (bit-identical to fresh engines),
// free (0 allocs/trial after warmup), and measurably cheaper than
// constructing an engine per trial (BenchmarkTrialReuse is the number the
// pooled harness amortizes away).

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// sessionWorkload is a terminating per-process program plus its config: a
// short write/read/probwrite loop whose outputs and work depend on the
// seed-derived coin streams, so any state leaking between trials shows up
// in the comparison.
func sessionWorkload(n int) (exec.Config, exec.Program) {
	f := register.NewFile()
	a := f.Alloc(n, "session-test")
	prog := func(e core.Env) value.Value {
		r := a.At(e.PID() % a.Len)
		acc := value.Value(0)
		for i := 0; i < 64; i++ {
			e.Write(r, value.Value(i))
			if e.ProbWrite(r, value.Value(i)+100, 1, 2) {
				acc++
			}
			acc += e.Read(r) % 3
		}
		return acc
	}
	cfg := exec.Config{
		N: n, File: f,
		Scheduler: sched.NewUniformRandom(),
		MaxSteps:  1 << 20,
	}
	return cfg, prog
}

// TestSessionReuseMatchesFreshRuns pins the reuse contract: one session run
// across many seeds produces exactly the results of a fresh engine run once
// per seed (runOnce), in any seed order.
func TestSessionReuseMatchesFreshRuns(t *testing.T) {
	const n = 5
	cfg, prog := sessionWorkload(n)
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Interleave repeats so a trial also re-runs a seed the session saw
	// earlier — reuse must not remember it.
	seeds := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for _, seed := range seeds {
		got, err := sess.Run(nil, seed)
		if err != nil {
			t.Fatalf("seed %d: session run: %v", seed, err)
		}
		freshCfg, freshProg := sessionWorkload(n)
		want, err := runOnce(freshCfg, seed, freshProg)
		if err != nil {
			t.Fatalf("seed %d: fresh run: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) ||
			!reflect.DeepEqual(got.Work, want.Work) ||
			got.TotalWork != want.TotalWork || got.Steps != want.Steps {
			t.Errorf("seed %d: reused session diverged from fresh run:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// powerUR is a uniform-random scheduler that declares an arbitrary MinPower,
// so the differential matrix exercises every view-restriction path (and the
// memory-image path for location-oblivious/adaptive) with a seed-dependent
// schedule.
type powerUR struct {
	power sched.Power
	inner *sched.UniformRandom
}

func (s *powerUR) Next(v *sched.View) int { return s.inner.Next(v) }
func (s *powerUR) Seed(src *xrand.Source) { s.inner.Seed(src) }
func (s *powerUR) Name() string           { return "power-ur-" + s.power.String() }
func (s *powerUR) MinPower() sched.Power  { return s.power }

// seqWorkload is sessionWorkload with an injectable scheduler, so the
// differential matrix can pin every power.
func seqWorkload(n int, s sched.Scheduler) (exec.Config, exec.Program) {
	cfg, prog := sessionWorkload(n)
	cfg.Scheduler = s
	return cfg, prog
}

// coinWorkload draws local coins to pick values and whether to probwrite,
// then collects the whole array — cheap (one OpCollect) or per-call (arr.Len
// individual reads), matching Env.Collect's two cost models.
func coinWorkload(n int, cheap bool, s sched.Scheduler) (exec.Config, exec.Program) {
	f := register.NewFile()
	a := f.Alloc(n, "session-coin")
	prog := func(e core.Env) value.Value {
		mine := a.At(e.PID())
		acc := value.Value(0)
		for i := 0; i < 8; i++ {
			v := value.Value(e.CoinIntn(10))
			e.Write(mine, v)
			if e.CoinBool() {
				if e.ProbWrite(mine, v+1, 2, 3) {
					acc += 2
				}
			}
			for _, x := range e.Collect(a) {
				acc += x % 5
			}
		}
		return acc
	}
	return exec.Config{N: n, File: f, Scheduler: s, CheapCollect: cheap, MaxSteps: 1 << 20}, prog
}

// TestSessionMatchesFreshDifferential widens the reuse pin to the whole
// engine surface: for every workload, process count, and adversary power, a
// session reused across seeds under each fault plan and register model
// reports exactly what a fresh engine run once at the same seed reports
// (that both engines' compile-once plans match a compile at the seed is
// TestReseedMatchesCompile's job, in internal/fault). Stall
// plans are excluded — a stalled execution only ends by cancellation, so
// its step count is wall-clock dependent by design — but the remaining kinds
// cover every injector stream reset must rewind (crash thresholds, lost-coin
// draws), and the register models cover the regular-read stream and the
// interposed view masking.
func TestSessionMatchesFreshDifferential(t *testing.T) {
	powers := []sched.Power{sched.Oblivious, sched.ValueOblivious, sched.LocationOblivious, sched.Adaptive}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"nofault", nil},
		{"crash+losecoin", fault.New(fault.Crash(0, 40), fault.LoseCoin(1, 1, 3))},
		{"crash-at-birth", fault.New(fault.Crash(0, 0), fault.LoseCoin(1, 1, 2))},
	}
	models := []register.Semantics{register.Atomic, register.Regular, register.Interposed}
	// The session replays a seed after running another, so a trial that
	// remembered its predecessor would diverge on the repeat.
	seeds := []uint64{1, 42, 1}

	workloads := []struct {
		name  string
		ns    []int
		build func(n int, s sched.Scheduler) (exec.Config, exec.Program)
	}{
		{"seq", []int{2, 16, 256}, seqWorkload},
		{"coins-cheap", []int{2, 16, 256}, func(n int, s sched.Scheduler) (exec.Config, exec.Program) {
			return coinWorkload(n, true, s)
		}},
		// Per-call collects cost arr.Len reads each; keep n small so the
		// quadratic step count stays test-sized.
		{"coins-percall", []int{2, 16}, func(n int, s sched.Scheduler) (exec.Config, exec.Program) {
			return coinWorkload(n, false, s)
		}},
	}

	for _, w := range workloads {
		for _, n := range w.ns {
			for _, power := range powers {
				t.Run(fmt.Sprintf("%s/n=%d/%s", w.name, n, power), func(t *testing.T) {
					build := func(p *fault.Plan, m register.Semantics) (exec.Config, exec.Program) {
						cfg, prog := w.build(n, &powerUR{power: power, inner: sched.NewUniformRandom()})
						cfg.Faults = p
						cfg.Registers = m
						return cfg, prog
					}
					models := models
					if n > 16 {
						// At n=256 the atomic model alone keeps the race
						// build's run time in bounds.
						models = models[:1]
					}
					for _, pl := range plans {
						for _, m := range models {
							cfg, prog := build(pl.plan, m)
							sess, err := Backend().NewSession(cfg, prog)
							if err != nil {
								t.Fatal(err)
							}
							fresh := make(map[uint64]*exec.Result)
							for _, seed := range seeds {
								res, errS := sess.Run(nil, seed)
								want, ok := fresh[seed]
								if !ok {
									freshCfg, freshProg := build(pl.plan, m)
									var errF error
									if want, errF = runOnce(freshCfg, seed, freshProg); errF != nil {
										t.Fatalf("%s/%v seed %d: fresh run: %v", pl.name, m, seed, errF)
									}
									fresh[seed] = want
								}
								if errS != nil {
									t.Fatalf("%s/%v seed %d: session run: %v", pl.name, m, seed, errS)
								}
								if got := cloneForCompare(res); !reflect.DeepEqual(got, want) {
									t.Errorf("%s/%v seed %d: reused session diverged from fresh run:\n got %+v\nwant %+v",
										pl.name, m, seed, got, want)
								}
							}
							sess.Close()
						}
					}
				})
			}
		}
	}
}

// TestRunSeedsMatchesRuns pins exec.RunSeeds over a sim session: its
// begin/emit loop reports exactly what consecutive Run calls report,
// repeated seeds included, and calls begin once per seed, in order.
func TestRunSeedsMatchesRuns(t *testing.T) {
	const n = 4
	cfg, prog := sessionWorkload(n)
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	seeds := []uint64{11, 5, 11, 2}
	want := make([]*exec.Result, len(seeds))
	for k, seed := range seeds {
		res, err := sess.Run(nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = cloneForCompare(res)
	}
	begun := 0
	err = exec.RunSeeds(sess, nil, seeds, func(k int) error {
		if k != begun {
			t.Fatalf("begin(%d) out of order (call %d)", k, begun)
		}
		begun++
		return nil
	}, func(k int, res *exec.Result, err error) bool {
		if err != nil {
			t.Fatalf("seed %d: %v", seeds[k], err)
		}
		if !reflect.DeepEqual(cloneForCompare(res), want[k]) {
			t.Errorf("seed %d: RunSeeds trial diverged from Run:\n got %+v\nwant %+v", seeds[k], res, want[k])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if begun != len(seeds) {
		t.Fatalf("begin called %d times for %d seeds", begun, len(seeds))
	}
}

// cloneForCompare deep-copies the session-owned parts of a result so trials
// can be compared across engine reuse.
func cloneForCompare(r *exec.Result) *exec.Result {
	c := *r
	c.Outputs = append([]value.Value(nil), r.Outputs...)
	c.Halted = append([]bool(nil), r.Halted...)
	c.Crashed = append([]bool(nil), r.Crashed...)
	c.Work = append([]int(nil), r.Work...)
	if r.Stalled != nil {
		c.Stalled = append([]bool(nil), r.Stalled...)
	}
	return &c
}

// TestTrialZeroAllocsAfterWarmup is the tentpole's per-trial half of the
// zero-allocation contract: after the first trial warms the session, a
// whole trial — reset plus the run — allocates nothing.
func TestTrialZeroAllocsAfterWarmup(t *testing.T) {
	cfg, prog := sessionWorkload(4)
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	seed := uint64(0)
	trial := func() {
		seed++
		if _, err := sess.Run(nil, seed); err != nil {
			t.Fatal(err)
		}
	}
	trial() // warm up: coroutine stacks grow, lazy buffers settle
	if allocs := testing.AllocsPerRun(50, trial); allocs != 0 {
		t.Errorf("got %v allocs/trial after warmup, want 0", allocs)
	}
}

// TestAttackTrialZeroAllocsAfterWarmup extends the per-trial contract to
// consensus under the attacks, which keep per-execution state of their own:
// once warm, a pooled session runs whole attacked trials without
// allocating, the endgame's attempt counts included.
func TestAttackTrialZeroAllocsAfterWarmup(t *testing.T) {
	sizes := []int{32, 256}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFirstMoverAttack() },
		func() sched.Scheduler { return sched.NewEagerWriteAttack() },
	} {
		for _, n := range sizes {
			s := mk()
			t.Run(fmt.Sprintf("%s/n=%d", s.Name(), n), func(t *testing.T) {
				file := register.NewFile()
				proto, err := recipe.Spec{N: n, M: 2, FastPath: true}.Build(file)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := Backend().NewSession(exec.Config{N: n, File: file, Scheduler: s, MaxSteps: 1 << 24},
					func(e core.Env) value.Value {
						out, _ := proto.Run(e, value.Value(e.PID()%2))
						return out
					})
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				seed := uint64(0)
				trial := func() {
					seed++
					if _, err := sess.Run(nil, seed); err != nil {
						t.Fatal(err)
					}
				}
				trial()
				if allocs := testing.AllocsPerRun(20, trial); allocs != 0 {
					t.Errorf("got %v allocs/trial after warmup, want 0", allocs)
				}
			})
		}
	}
}

// TestSessionPoisonedAfterProgramPanic pins the pessimistic-poisoning
// contract: a program panic escapes Run, and every later Run on that
// session reports exec.ErrSessionPoisoned instead of running on wreckage.
func TestSessionPoisonedAfterProgramPanic(t *testing.T) {
	cfg, _ := sessionWorkload(3)
	armed := false
	prog := func(e core.Env) value.Value {
		if armed && e.PID() == 1 {
			panic("session_test: injected program panic")
		}
		return value.Value(e.PID())
	}
	sess, err := Backend().NewSession(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Run(nil, 1); err != nil {
		t.Fatalf("clean trial: %v", err)
	}
	armed = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("program panic did not escape Run")
			}
		}()
		sess.Run(nil, 2)
	}()
	if _, err := sess.Run(nil, 3); !errors.Is(err, exec.ErrSessionPoisoned) {
		t.Fatalf("run after panic: err = %v, want ErrSessionPoisoned", err)
	}
}

// BenchmarkTrialReuse quantifies what session pooling buys: "fresh" pays
// engine construction (registers snapshot, coroutine spawns, buffers, RNG
// state) on every trial, "pooled" pays it once and runs one Run per
// trial. The delta is the per-trial overhead the pooled harness amortizes.
func BenchmarkTrialReuse(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("fresh/n=%d", n), func(b *testing.B) {
			cfg, prog := sessionWorkload(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess, err := Backend().NewSession(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Run(nil, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
				sess.Close()
			}
		})
		b.Run(fmt.Sprintf("pooled/n=%d", n), func(b *testing.B) {
			cfg, prog := sessionWorkload(n)
			sess, err := Backend().NewSession(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(nil, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
