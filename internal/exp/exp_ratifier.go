package exp

import (
	"fmt"
	"math"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/quorum"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
)

// E4RatifierSpaceWork tabulates ratifier space/work per scheme against the
// paper's formulas and re-verifies the weak-consensus properties on real
// executions for every scheme and m.
func E4RatifierSpaceWork(cfg Config) *Table {
	t := &Table{
		ID:         "E4",
		Title:      "Deterministic m-valued ratifier: registers and individual work",
		PaperClaim: "Thm 10: lg m + Θ(log log m) registers and work (pool); §6.2(3): 2⌈lg m⌉+1 registers, 2⌈lg m⌉+2 ops (bit-vector); §6.2(1): 3 registers, 4 ops (binary)",
		Columns:    []string{"m", "scheme", "registers", "paper registers", "max ops", "paper ops", "properties"},
	}
	trials := cfg.trials(30)
	type entry struct {
		name       string
		build      func(f *register.File) *ratifier.Quorum
		paperRegs  int
		paperOps   int
		applicable bool
	}
	for _, m := range []int{2, 4, 16, 64, 256, 1024, 4096} {
		lg := int(math.Ceil(math.Log2(float64(m))))
		entries := []entry{
			{
				name:      "pool",
				build:     func(f *register.File) *ratifier.Quorum { return ratifier.NewPool(f, m, 1) },
				paperRegs: quorum.MinPoolSize(m) + 1, paperOps: quorum.MinPoolSize(m) + 2, applicable: true,
			},
			{
				name:      "bitvector",
				build:     func(f *register.File) *ratifier.Quorum { return ratifier.NewBitVector(f, m, 1) },
				paperRegs: 2*lg + 1, paperOps: 2*lg + 2, applicable: true,
			},
			{
				name:      "binary",
				build:     func(f *register.File) *ratifier.Quorum { return ratifier.NewBinary(f, 1) },
				paperRegs: 3, paperOps: 4, applicable: m == 2,
			},
		}
		for _, e := range entries {
			if !e.applicable {
				continue
			}
			file := register.NewFile()
			r := e.build(file)
			props := "ok"
			verify := quorum.Verify
			if m > 1024 {
				verify = func(sc quorum.Scheme) error { return quorum.VerifySample(sc, 20_000, cfg.Seed) }
			}
			if err := verify(r.Scheme()); err != nil {
				props = err.Error()
			}
			ops := &obs.Hist{}
			n := 5
			if props == "ok" {
				in := newInputTable(n, m)
				s := cfg.sweep(trials)
				s.WorkHist = ops
				mustSweep(harness.SweepObject(s,
					harness.ObjectSweep{
						Build: func() (core.Object, harness.ObjectConfig) {
							f2 := register.NewFile()
							return e.build(f2), harness.ObjectConfig{
								N: n, File: f2, Inputs: in.row(0),
								Scheduler: sched.NewUniformRandom(), Traced: true,
							}
						},
						Inputs: in.of,
					},
					func(_ harness.Trial, run *harness.ObjectRun) {
						if err := check.Objects(run.Trace, "R"); err != nil {
							props = err.Error()
						}
					}))
			}
			t.AddRow(fmt.Sprintf("%d", m), e.name,
				fmt.Sprintf("%d", r.Registers()), fmt.Sprintf("%d", e.paperRegs),
				fmt.Sprintf("%d", ops.Max()), fmt.Sprintf("≤%d", e.paperOps), props)
		}
	}
	t.AddNote("properties = validity + coherence + acceptance checked on traced executions")
	return t
}

// E5QuorumOptimality verifies Theorem 9: the pool scheme realizes
// m = C(k, ⌊k/2⌋), the Bollobás maximum, and every scheme's Bollobás sum is
// ≤ 1 with equality exactly at the optimum.
func E5QuorumOptimality(cfg Config) *Table {
	t := &Table{
		ID:         "E5",
		Title:      "Quorum system optimality (Bollobás's theorem)",
		PaperClaim: "Theorem 9: Σ 1/C(|W|+|R|,|W|) ≤ 1; the k-register pool supports at most C(k,⌊k/2⌋) values, achieved by the pool scheme",
		Columns:    []string{"k", "C(k,⌊k/2⌋)", "pool supports", "Bollobás sum (full pool)", "bitvector sum (same m)"},
	}
	for _, k := range []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20} {
		m := int(quorum.Binomial(k, k/2))
		pool := quorum.NewPool(m)
		if pool.PoolSize() != k {
			t.AddNote("pool for m=%d used %d registers, expected %d", m, pool.PoolSize(), k)
		}
		// Full pairwise verification is O(m²); beyond k=12 (m=924) sample.
		var err error
		if k <= 12 {
			err = quorum.Verify(pool)
		} else {
			err = quorum.VerifySample(pool, 20_000, cfg.Seed)
		}
		if err != nil {
			t.AddNote("VERIFY FAILED k=%d: %v", k, err)
		}
		sumPool := quorum.BollobasSum(pool)
		sumBV := quorum.BollobasSum(quorum.NewBitVector(m))
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", m), fmt.Sprintf("%d", pool.M()),
			fmt.Sprintf("%.6f", sumPool), fmt.Sprintf("%.6f", sumBV))
	}
	t.AddNote("full-pool sum = 1.000000 certifies optimality; bit-vector sums < 1 show its slack")
	return t
}
