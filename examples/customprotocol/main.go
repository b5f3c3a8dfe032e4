// Custom protocol assembly: the point of the paper's modular decomposition
// is that conciliators and ratifiers are interchangeable parts. This
// example builds three different consensus protocols from the exported
// objects and races them on the same workload:
//
//  1. the paper's recipe (impatient conciliators + ratifiers),
//  2. the pre-2010 recipe (constant-rate CIL/Cheung conciliators), and
//  3. a "belt and suspenders" chain that ends in the bounded-space CIL
//     consensus object, so it decides even if every conciliator stage
//     fails.
//
// Safety is identical for all three — it comes from the ratifiers — while
// the work profile differs exactly as the theorems predict.
//
// Each race runs its trials on modcon.Trials (the parallel trial engine)
// and executes the hand-assembled chain with modcon.Run and functional
// options, the top-level API for custom objects.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/modular-consensus/modcon"
)

const (
	n      = 16
	m      = 4
	stages = 8
	trials = 150
)

// buildChain assembles `stages` conciliator+ratifier pairs, with a CIL tail
// when withFallback is set.
func buildChain(file *modcon.Registers, impatient, withFallback bool) (modcon.Object, error) {
	var objs []modcon.Object
	for i := 1; i <= stages; i++ {
		if impatient {
			objs = append(objs, modcon.NewImpatientConciliator(file, n, i))
		} else {
			objs = append(objs, modcon.NewConstantRateConciliator(file, n, i))
		}
		r, err := modcon.NewRatifier(file, m, i)
		if err != nil {
			return nil, err
		}
		objs = append(objs, r)
	}
	if withFallback {
		objs = append(objs, modcon.NewCILConsensus(file, n, 0))
	}
	return modcon.Compose(objs...), nil
}

func race(name string, impatient, withFallback bool) error {
	totalWork, maxWork, undecided := 0, 0, 0
	report, err := modcon.Trials(trials,
		func(ctx context.Context, t modcon.Trial) (*modcon.ObjectRun, error) {
			// Objects are one-shot: fresh registers and a fresh chain per
			// trial, seeded from the engine's derived per-trial seed.
			file := modcon.NewRegisters()
			chain, err := buildChain(file, impatient, withFallback)
			if err != nil {
				return nil, err
			}
			inputs := make([]modcon.Value, n)
			for i := range inputs {
				inputs[i] = modcon.Value((i + t.Index) % m)
			}
			run, err := modcon.Run(chain,
				modcon.WithRegisters(file),
				modcon.WithN(n),
				modcon.WithInputs(inputs...),
				modcon.WithScheduler(modcon.NewFirstMoverAttack()),
				modcon.WithSeed(t.Seed),
				modcon.WithContext(ctx))
			if err != nil {
				return nil, err
			}
			var agreedOutputs []modcon.Value
			for _, d := range run.Decisions {
				if d.Decided {
					agreedOutputs = append(agreedOutputs, d.V)
				}
			}
			if err := modcon.CheckConsensus(inputs, agreedOutputs); err != nil {
				return nil, fmt.Errorf("%s trial %d: %w", name, t.Index, err)
			}
			return run, nil
		},
		func(_ modcon.Trial, run *modcon.ObjectRun, rep modcon.TrialReport) {
			if rep.Outcome != modcon.TrialOK {
				return
			}
			totalWork += run.Result.TotalWork
			for _, d := range run.Decisions {
				if !d.Decided {
					undecided++
				}
			}
			for _, w := range run.Result.Work {
				if w > maxWork {
					maxWork = w
				}
			}
		})
	if err != nil {
		return err
	}
	// The unified engine classifies trial errors instead of aborting, and
	// its report lists only the trials that were not ok, in trial order;
	// surface the first one (e.g. a CheckConsensus violation) as this race's
	// error.
	if len(report.Reports) > 0 {
		return report.Reports[0].Err
	}
	fmt.Printf("%-34s  mean total %6.1f ops   worst individual %3d ops   undecided %d/%d\n",
		name, float64(totalWork)/trials, maxWork, undecided, trials*n)
	return nil
}

func main() {
	fmt.Printf("racing 3 hand-assembled protocols: n=%d, m=%d, %d stages, first-mover attack, %d trials\n\n",
		n, m, stages, trials)
	for _, cfg := range []struct {
		name                    string
		impatient, withFallback bool
	}{
		{"paper recipe (impatient)", true, false},
		{"pre-2010 recipe (constant-rate)", false, false},
		{"impatient + CIL fallback", true, true},
	} {
		if err := race(cfg.name, cfg.impatient, cfg.withFallback); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nall protocols are safe (ratifiers); the conciliator choice only moves the work")
}
