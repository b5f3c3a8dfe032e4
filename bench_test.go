package modcon

// One testing.B benchmark per experiment (E1–E15; see DESIGN.md §3 and
// EXPERIMENTS.md). Each benchmark iterates the experiment's core unit of
// work — typically one simulated execution of the relevant object or
// protocol — and reports the paper's cost measures as custom metrics
// (ops/exec = total work, ops/proc = individual work, agree = empirical
// agreement probability), so `go test -bench` regenerates the quantitative
// shape of every claim. The full sweeps with confidence intervals live in
// cmd/modcon-bench.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/exp"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/quorum"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// benchConciliator runs one fresh impatient conciliator execution per
// iteration on the parallel trial engine and reports work and agreement
// metrics.
func benchConciliator(b *testing.B, n int, growth conciliator.Growth, mkSched func() sched.Scheduler) {
	b.Helper()
	totalOps, maxOps, agree := 0, 0, 0
	err := harness.SweepObject(harness.Sweep{Trials: b.N, Seed: 1},
		harness.ObjectSweep{Build: func() (core.Object, harness.ObjectConfig) {
			file := register.NewFile()
			c := conciliator.NewImpatient(file, n, 1)
			c.Growth = growth
			inputs := make([]value.Value, n)
			for p := range inputs {
				inputs[p] = value.Value(p)
			}
			return c, harness.ObjectConfig{
				N: n, File: file, Inputs: inputs, Scheduler: mkSched(),
			}
		}},
		func(_ harness.Trial, run *harness.ObjectRun) {
			totalOps += run.Result.TotalWork
			maxOps += run.Result.MaxIndividualWork()
			allEq := true
			outs := run.Outputs()
			for _, v := range outs {
				if v != outs[0] {
					allEq = false
				}
			}
			if allEq {
				agree++
			}
		})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(totalOps)/float64(b.N), "ops/exec")
	b.ReportMetric(float64(maxOps)/float64(b.N), "ops/proc")
	b.ReportMetric(float64(agree)/float64(b.N), "agree")
}

// BenchmarkE1ConciliatorAgreement measures agreement probability under the
// Theorem 7 attack adversary (claim: ≥ 0.0553).
func BenchmarkE1ConciliatorAgreement(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("n=%d/first-mover-attack", n), func(b *testing.B) {
			benchConciliator(b, n, conciliator.GrowthDoubling,
				func() sched.Scheduler { return sched.NewFirstMoverAttack() })
		})
	}
}

// BenchmarkE2ConciliatorTotalWork measures expected total work (claim: ≤ 6n).
func BenchmarkE2ConciliatorTotalWork(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConciliator(b, n, conciliator.GrowthDoubling,
				func() sched.Scheduler { return sched.NewFirstMoverAttack() })
		})
	}
}

// BenchmarkE3ConciliatorIndividualWork measures individual work
// (claim: ≤ 2 lg n + O(1); watch ops/proc grow by +2 per doubling).
func BenchmarkE3ConciliatorIndividualWork(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConciliator(b, n, conciliator.GrowthDoubling,
				func() sched.Scheduler { return sched.NewLaggard() })
		})
	}
}

// BenchmarkE4Ratifier measures one m-valued ratifier execution per
// iteration (claim: ops/proc ≤ poolsize+2 = lg m + Θ(log log m)).
func BenchmarkE4Ratifier(b *testing.B) {
	for _, m := range []int{2, 64, 4096} {
		for _, schemeName := range []string{"pool", "bitvector"} {
			b.Run(fmt.Sprintf("m=%d/%s", m, schemeName), func(b *testing.B) {
				n := 8
				maxOps := 0
				for i := 0; i < b.N; i++ {
					file := register.NewFile()
					var r *ratifier.Quorum
					if schemeName == "pool" {
						r = ratifier.NewPool(file, m, 1)
					} else {
						r = ratifier.NewBitVector(file, m, 1)
					}
					inputs := make([]value.Value, n)
					for p := range inputs {
						inputs[p] = value.Value(p % m)
					}
					run, err := harness.RunObject(r, harness.ObjectConfig{
						N: n, File: file, Inputs: inputs,
						Scheduler: sched.NewUniformRandom(), Seed: uint64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					if w := run.Result.MaxIndividualWork(); w > maxOps {
						maxOps = w
					}
				}
				b.ReportMetric(float64(maxOps), "maxops/proc")
			})
		}
	}
}

// BenchmarkE5QuorumGeneration measures quorum unranking (the ratifier's only
// nontrivial local computation) and verifies optimality bookkeeping.
func BenchmarkE5QuorumGeneration(b *testing.B) {
	for _, m := range []int{64, 4096, 184756} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			s := quorum.NewPool(m)
			for i := 0; i < b.N; i++ {
				_ = s.WriteQuorum(value.Value(i % m))
			}
		})
	}
}

// benchConsensus runs one full consensus execution per iteration through
// the public Trials sweep API.
func benchConsensus(b *testing.B, cons *Consensus, n, m int, mkSched func() Scheduler) {
	b.Helper()
	totalOps, maxOps := 0, 0
	report, err := Trials(b.N,
		func(ctx context.Context, tr Trial) (*Outcome, error) {
			inputs := make([]Value, n)
			for p := range inputs {
				inputs[p] = Value((p + tr.Index) % m)
			}
			return cons.Solve(inputs, mkSched(), tr.Seed, RunConfig{Context: ctx})
		},
		func(_ Trial, out *Outcome, rep TrialReport) {
			if rep.Outcome != TrialOK {
				b.Fatalf("trial %d classified %s: %v", rep.Trial.Index, rep.Outcome, rep.Err)
			}
			totalOps += out.TotalWork
			maxOps += out.MaxWork()
		},
		WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	if got := report.Count(TrialOK); got != b.N {
		b.Fatalf("report counted %d ok trials, want %d", got, b.N)
	}
	b.ReportMetric(float64(totalOps)/float64(b.N), "ops/exec")
	b.ReportMetric(float64(maxOps)/float64(b.N), "ops/proc")
}

// BenchmarkE6BinaryConsensus measures the headline result (claims: ops/proc
// = O(log n), ops/exec = O(n)).
func BenchmarkE6BinaryConsensus(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		cons, err := NewBinary(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/attack", n), func(b *testing.B) {
			benchConsensus(b, cons, n, 2, func() Scheduler { return NewFirstMoverAttack() })
		})
	}
}

// BenchmarkE7MValuedConsensus measures m-valued consensus (claim: ops/exec
// = O(n log m)).
func BenchmarkE7MValuedConsensus(b *testing.B) {
	n := 32
	for _, m := range []int{2, 64, 1024} {
		cons, err := New(n, m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(b *testing.B) {
			benchConsensus(b, cons, n, m, func() Scheduler { return NewFirstMoverAttack() })
		})
	}
}

// BenchmarkE8BaselineComparison contrasts the paper's conciliator with the
// constant-rate CIL/Cheung baseline on solo runs (claims: O(log n) vs Θ(n)).
func BenchmarkE8BaselineComparison(b *testing.B) {
	n := 256
	for _, g := range []conciliator.Growth{conciliator.GrowthDoubling, conciliator.GrowthConstant} {
		b.Run(g.String(), func(b *testing.B) {
			totalOps := 0
			for i := 0; i < b.N; i++ {
				file := register.NewFile()
				c := conciliator.NewImpatient(file, n, 1)
				c.Growth = g
				run, err := harness.RunObject(c, harness.ObjectConfig{
					N: 1, File: file, Inputs: []value.Value{1},
					Scheduler: sched.NewRoundRobin(), Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				totalOps += run.Result.TotalWork
			}
			b.ReportMetric(float64(totalOps)/float64(b.N), "ops/exec")
		})
	}
}

// BenchmarkE9FastPath measures unanimous-input executions (claim: O(1)
// individual work independent of n).
func BenchmarkE9FastPath(b *testing.B) {
	for _, n := range []int{8, 128} {
		cons, err := NewBinary(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConsensus(b, cons, n, 1, func() Scheduler { return NewUniformRandom() })
		})
	}
}

// BenchmarkE10CoinConciliator measures the shared-coin-based conciliator
// (Theorem 6; the voting coin dominates the cost).
func BenchmarkE10CoinConciliator(b *testing.B) {
	n := 4
	cons, err := NewBinary(n, WithConciliator(ConciliatorSharedCoin))
	if err != nil {
		b.Fatal(err)
	}
	benchConsensus(b, cons, n, 2, func() Scheduler { return NewUniformRandom() })
}

// BenchmarkE11NoisyRatifierOnly measures the ratifier-only protocol under
// noisy scheduling (§4.2).
func BenchmarkE11NoisyRatifierOnly(b *testing.B) {
	for _, n := range []int{4, 16} {
		cons, err := NewBinary(n, WithConciliator(ConciliatorNone), WithStages(4096), WithFastPath(false))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConsensus(b, cons, n, 2, func() Scheduler { return NewNoisy(0.5) })
		})
	}
}

// BenchmarkE12PriorityRatifierOnly measures the ratifier-only protocol
// under priority scheduling (§4.2).
func BenchmarkE12PriorityRatifierOnly(b *testing.B) {
	for _, n := range []int{4, 16} {
		cons, err := NewBinary(n, WithConciliator(ConciliatorNone), WithStages(64), WithFastPath(false))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchConsensus(b, cons, n, 2, func() Scheduler { return NewPriority(nil) })
		})
	}
}

// BenchmarkE13BoundedConstruction measures the truncated chain with the CIL
// fallback (§4.1.2), forcing the fallback with a ratifier-only prefix.
func BenchmarkE13BoundedConstruction(b *testing.B) {
	n := 8
	cons, err := NewBinary(n, WithConciliator(ConciliatorNone), WithStages(2),
		WithFastPath(false), WithFallback(true))
	if err != nil {
		b.Fatal(err)
	}
	benchConsensus(b, cons, n, 2, func() Scheduler { return NewLaggard() })
}

// BenchmarkE14TerminationTail measures the fraction of executions that
// exceed a fixed step budget (the Attiya–Censor tail; claim: exponential
// decay in the budget).
func BenchmarkE14TerminationTail(b *testing.B) {
	n := 16
	cons, err := NewBinary(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, mult := range []int{4, 16} {
		b.Run(fmt.Sprintf("budget=%dn", mult), func(b *testing.B) {
			timedOut := 0
			for i := 0; i < b.N; i++ {
				inputs := make([]Value, n)
				for p := range inputs {
					inputs[p] = Value(p % 2)
				}
				_, err := cons.Solve(inputs, NewFirstMoverAttack(), uint64(i),
					RunConfig{MaxSteps: mult * n})
				switch {
				case err == nil:
				case errors.Is(err, exec.ErrStepLimit):
					timedOut++
				default:
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(timedOut)/float64(b.N), "timeout-rate")
		})
	}
}

// BenchmarkE15Ablations covers the growth-schedule ablation; the other
// ablations are variations of earlier benchmarks (see cmd/modcon-bench -run
// E15 for the full table).
func BenchmarkE15Ablations(b *testing.B) {
	n := 64
	for _, g := range []conciliator.Growth{conciliator.GrowthDoubling, conciliator.GrowthLinear, conciliator.GrowthConstant} {
		b.Run("growth="+g.String(), func(b *testing.B) {
			benchConciliator(b, n, g, func() sched.Scheduler { return sched.NewFirstMoverAttack() })
		})
	}
}

// BenchmarkLiveBinaryConsensus runs the full protocol on the live
// sync/atomic backend with real goroutines — wall-clock numbers rather than
// model costs.
func BenchmarkLiveBinaryConsensus(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		spec, err := NewBinary(n, WithFallback(true))
		if err != nil {
			b.Fatal(err)
		}
		inputs := make([]Value, n)
		for i := range inputs {
			inputs[i] = Value(i % 2)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := spec.Solve(inputs, nil, uint64(i), RunConfig{Backend: Live})
				if err != nil {
					b.Fatal(err)
				}
				if out.Value.IsNone() {
					b.Fatal("live run decided nothing")
				}
			}
		})
	}
}

// BenchmarkSolveReuse times Solve on both sides of a spec's session reuse:
// calls that repeat one shape replay the session their instance keeps,
// while a fresh spec per call, or calls that alternate register models,
// tracing or fault plans, run on a session closed at the end. n=8 unless
// the name says otherwise.
func BenchmarkSolveReuse(b *testing.B) {
	plan, err := ParseFaults("crash:pid=0,after=5;losecoin:p=0.1")
	if err != nil {
		b.Fatal(err)
	}
	attack := func() Scheduler { return NewFirstMoverAttack() }
	uniform := func() Scheduler { return NewUniformRandom() }
	cases := []struct {
		name     string
		n        int
		newSpec  bool // a fresh spec per call
		newSched func() Scheduler
		rcs      []RunConfig // cycled call by call
	}{
		{"repeat", 8, false, attack, []RunConfig{{}}},
		{"repeat-traced", 8, false, uniform, []RunConfig{{Traced: true}}},
		{"repeat-n32-regular-faults", 32, false, uniform, []RunConfig{{Registers: Regular, Faults: plan}}},
		{"repeat-live", 8, false, func() Scheduler { return nil }, []RunConfig{{Backend: Live}}},
		{"fresh-spec", 8, true, attack, []RunConfig{{}}},
		{"fresh-spec-traced", 8, true, uniform, []RunConfig{{Traced: true}}},
		{"alternate-registers", 8, false, uniform, []RunConfig{{}, {Registers: Regular}}},
		{"alternate-traced", 8, false, uniform, []RunConfig{{}, {Traced: true}}},
		{"alternate-faults", 8, false, uniform, []RunConfig{{}, {Faults: plan}}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			inputs := make([]Value, bc.n)
			for i := range inputs {
				inputs[i] = Value(i % 2)
			}
			spec, err := NewBinary(bc.n)
			if err != nil {
				b.Fatal(err)
			}
			// Build the spec's instance before timing, unless every call
			// builds its own.
			if _, err := spec.Solve(inputs, bc.newSched(), 0, bc.rcs[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.newSpec {
					if spec, err = NewBinary(bc.n); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := spec.Solve(inputs, bc.newSched(), uint64(i), bc.rcs[i%len(bc.rcs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorOverhead isolates the cost of one scheduled operation in
// the simulation runtime: one scheduler call and two coroutine switches, into
// the process and back to the engine.
func BenchmarkSimulatorOverhead(b *testing.B) {
	file := register.NewFile()
	r := file.Alloc1("x")
	_, err := harness.RunProgram(func(e core.Env) value.Value {
		for i := 0; i < b.N; i++ {
			e.Read(r)
		}
		return 0
	}, harness.ObjectConfig{
		N: 1, File: file, Scheduler: sched.NewRoundRobin(), Seed: 1,
		MaxSteps: b.N + 2,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExperimentHarness smoke-runs the cheapest full experiment to keep
// the harness itself under benchmark coverage.
func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.E9FastPath(exp.Config{Trials: 1, Seed: uint64(i)})
	}
}
