package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"strings"
	"sync/atomic"
	"time"

	modcon "github.com/modular-consensus/modcon"
	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exp"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sim"
)

// spec describes one workload. Every workload is a closed loop: the next op
// starts only when the previous one (or, for sweeps, a worker's previous
// trial) has completed.
type spec struct {
	name string
	why  string
	// roundSec is the nominal length of one measured round on the reference
	// host (2 cores); the round count is --seconds / roundSec. Short rounds
	// give the best-round estimators more chances at a quiet stretch. The
	// sweep's rounds are longer: its trials wait in the in-order fold for
	// the other worker's block of 32, and a round of 25 blocks averages
	// over how the two workers' blocks happen to line up.
	roundSec float64
	// size is the work of one measured round and warm the work of the
	// warm-up: ops, except for exp-e6 where it is trials per cell.
	size, warm int
	// parallel marks workloads whose rounds run on the trial engine's
	// workers; their capacity is wall time × workers.
	parallel bool
	// cells marks a workload whose latency samples are the cells of an
	// experiment, the same cells in the same order every round, rather
	// than its ops. Its times come from each cell's best round.
	cells bool
	// buildNs lists the process counts whose Consensus.Build the workload
	// performs, for build.allocs_per_call; nil where the builds happen
	// inside the program, out of the trace's sight.
	buildNs []int
	// newRunner sets the workload up for a seed.
	newRunner func(seed uint64, workers int) (runner, error)
}

// runner runs rounds of one workload; tr is nil for the untraced run.
type runner interface {
	round(r, size int, tr *tracer) roundOut
}

var specs = []spec{
	{
		name:     "solve-n8-attack",
		why:      "one caller loops Solve at n=8 under the first-mover attack: the library-embedding path, where protocol build dominates",
		roundSec: 0.05, size: 100, warm: 200, buildNs: []int{8},
		newRunner: newSolveRunner,
	},
	{
		name:     "sweep-n32-attack",
		why:      "pooled Sweep at n=32 under the first-mover attack on 2 workers: the lane path, where the scheduler and engine dominate and build is amortised",
		roundSec: 0.17, size: 800, warm: 500, parallel: true, buildNs: []int{32},
		newRunner: newSweepRunner,
	},
	{
		name:     "trials-n32-faults",
		why:      "robust Trials of Solve at n=32 with regular registers, a crash and lost coins: the robust dispatcher, fault plane and a fresh engine per trial",
		roundSec: 0.05, size: 100, warm: 250, parallel: true, buildNs: []int{32},
		newRunner: newTrialsRunner,
	},
	{
		name:     "exp-e6",
		why:      "the headline experiment E6 at default scale, n from 4 to 256: large-n cells dominate, so per-step engine cost shows",
		roundSec: 2.5, size: 150, warm: 5, parallel: true, cells: true,
		newRunner: newE6Runner,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// roundOut is what one round reports: op count, failures, per-op latencies
// and the digest of its outputs.
type roundOut struct {
	ops, failed, violations int
	lat                     []int64
	digest                  [sha256.Size]byte
	firstProblem            string
}

func (o *roundOut) problem(violation bool, format string, args ...any) {
	if violation {
		o.violations++
	} else {
		o.failed++
	}
	if o.firstProblem == "" {
		o.firstProblem = fmt.Sprintf(format, args...)
	}
}

// judge checks one consensus outcome: no error, agreement and validity
// (re-verified here, independently of the program's own check), and every
// process except crashed decided.
func (o *roundOut) judge(op int, inputs []modcon.Value, out *modcon.Outcome, err error, crashed int) {
	switch {
	case out != nil && out.Violation != nil:
		o.problem(true, "op %d: safety violation: %v", op, out.Violation)
	case err != nil:
		o.problem(false, "op %d: %v", op, err)
	case out == nil:
		o.problem(false, "op %d: no outcome", op)
	default:
		if verr := modcon.Verify(inputs, out); verr != nil {
			o.problem(true, "op %d: %v", op, verr)
			return
		}
		for pid, d := range out.Decided {
			if !d && pid != crashed {
				o.problem(false, "op %d: process %d did not decide", op, pid)
				return
			}
		}
	}
}

// folder folds (op index, decided value, total work) into a sha256 digest.
type folder struct {
	h   hash.Hash
	buf [24]byte
}

func newFolder() *folder { return &folder{h: sha256.New()} }

func (f *folder) fold(op int, out *modcon.Outcome) {
	v, work := int64(-2), int64(-1)
	if out != nil {
		v, work = int64(out.Value), int64(out.TotalWork)
	}
	binary.LittleEndian.PutUint64(f.buf[0:], uint64(op))
	binary.LittleEndian.PutUint64(f.buf[8:], uint64(v))
	binary.LittleEndian.PutUint64(f.buf[16:], uint64(work))
	f.h.Write(f.buf[:])
}

func (f *folder) sum() (d [sha256.Size]byte) {
	copy(d[:], f.h.Sum(nil))
	return d
}

// roundSeed derives round r's root seed from the workload seed.
func roundSeed(seed uint64, r int) uint64 { return harness.TrialSeed(seed, r) }

// rotations returns the m rotations of the mixed input vector of n
// processes: rotation k gives process p the input (p+k) mod 2. The slices
// are shared read-only by every op.
func rotations(n int) [2][]modcon.Value {
	var rot [2][]modcon.Value
	for k := range rot {
		rot[k] = make([]modcon.Value, n)
		for p := range rot[k] {
			rot[k][p] = modcon.Value((p + k) % 2)
		}
	}
	return rot
}

// newObjAcc returns an object-time accumulator for a protocol of n
// processes.
func newObjAcc(n int) *objAcc {
	return &objAcc{envs: make([]timedEnv, n)}
}

// tracedBuild is Consensus.Build with its default options for m = 2 (binary
// ratifiers, impatient conciliators with doubling growth, fast path, no
// fallback), with every object wrapped to time itself.
func tracedBuild(tr *tracer, parent kind, parentID int64, n int, acc *objAcc) (*register.File, *core.Protocol, error) {
	t0 := now()
	file := register.NewFile()
	proto, err := core.NewProtocol(core.Options{
		N:    n,
		File: file,
		NewRatifier: acc.wrap(func(f *register.File, i int) core.Object {
			return ratifier.NewBinary(f, i)
		}),
		NewConciliator: acc.wrap(func(f *register.File, i int) core.Object {
			c := conciliator.NewImpatient(f, n, i)
			c.Growth = conciliator.GrowthDoubling
			return c
		}),
		FastPath: true,
	})
	tr.record(kBuild, parent, parentID, t0, now())
	return file, proto, err
}

// outcomeOf assembles a public Outcome from a protocol run, as Solve and
// Sweep do.
func outcomeOf(run *harness.ProtocolRun, n int, stage func(pid int) (int, bool)) *modcon.Outcome {
	out := &modcon.Outcome{
		Outputs:   run.Result.Outputs,
		Decided:   run.Decided,
		Stage:     make([]int, n),
		FellBack:  make([]bool, n),
		TotalWork: run.Result.TotalWork,
		Work:      run.Result.Work,
		Violation: run.Violation,
		Trace:     run.Trace,
		Value:     modcon.None,
	}
	for pid := range out.Stage {
		out.Stage[pid], out.FellBack[pid] = stage(pid)
	}
	if decided := run.DecidedOutputs(); len(decided) > 0 {
		out.Value = decided[0]
	}
	return out
}

// tracedSolve is (*Consensus).Solve for NewBinary(n), rebuilt from the
// calls it makes — core.NewProtocol, harness.RunProtocol, check.Consensus —
// with each call timed.
func tracedSolve(tr *tracer, parent kind, parentID int64, n int, inputs []modcon.Value, s modcon.Scheduler, seed uint64, rc modcon.RunConfig) (*modcon.Outcome, error) {
	id := tr.reserve()
	start := now()
	defer func() { tr.finish(id, kSolve, parent, parentID, start, now()) }()
	for _, v := range inputs {
		if v.IsNone() || v < 0 || v >= 2 {
			return nil, fmt.Errorf("modcon: input %s outside [0, 2)", v)
		}
	}
	acc := newObjAcc(n)
	file, proto, err := tracedBuild(tr, kSolve, id, n, acc)
	if err != nil {
		return nil, err
	}
	ts := &timedSched{Scheduler: s}
	hid := tr.reserve()
	h0 := now()
	pr, err := harness.RunProtocol(proto, harness.ObjectConfig{
		N: n, File: file, Inputs: inputs, Scheduler: ts, Seed: seed,
		Backend:      timedBackend{Backend: sim.Backend(), tr: tr, parent: kHCall, parentID: hid},
		CheapCollect: rc.CheapCollect, Registers: rc.Registers,
		CrashAfter: rc.CrashAfter, Faults: rc.Faults,
		MaxSteps: rc.MaxSteps, Context: rc.Context,
	})
	tr.finish(hid, kHCall, kSolve, id, h0, now())
	var t tally
	ts.flushInto(&t)
	acc.flushInto(&t)
	tr.flush(&t)
	if err != nil {
		return nil, err
	}
	out := outcomeOf(pr, n, proto.DecidedStage)
	full := inputs
	if len(full) == 1 {
		full = make([]modcon.Value, n)
		for i := range full {
			full[i] = inputs[0]
		}
	}
	if err := check.Consensus(full, pr.DecidedOutputs()); err != nil {
		if out.Violation == nil {
			out.Violation = err
		}
		return out, fmt.Errorf("modcon: SAFETY VIOLATION (bug): %w", err)
	}
	return out, nil
}

// solveRunner: one caller loops Solve.
type solveRunner struct {
	c    *modcon.Consensus
	n    int
	seed uint64
	rot  [2][]modcon.Value
}

func newSolveRunner(seed uint64, _ int) (runner, error) {
	c, err := modcon.NewBinary(8)
	if err != nil {
		return nil, err
	}
	return &solveRunner{c: c, n: 8, seed: seed, rot: rotations(8)}, nil
}

func (w *solveRunner) round(r, size int, tr *tracer) roundOut {
	out := roundOut{ops: size, lat: make([]int64, 0, size)}
	f := newFolder()
	rs := roundSeed(w.seed, r)
	var rc rootClock
	if tr != nil {
		rc = tr.beginRoot(1)
	}
	for i := 0; i < size; i++ {
		in := w.rot[i%2]
		seed := harness.TrialSeed(rs, i)
		var (
			o   *modcon.Outcome
			err error
		)
		t0 := now()
		if tr == nil {
			o, err = w.c.Solve(in, modcon.NewFirstMoverAttack(), seed)
		} else {
			o, err = tracedSolve(tr, kRoot, tr.rootID, w.n, in, modcon.NewFirstMoverAttack(), seed, modcon.RunConfig{})
		}
		out.lat = append(out.lat, now()-t0)
		out.judge(i, in, o, err, -1)
		f.fold(i, o)
	}
	if tr != nil {
		tr.endRoot(rc)
	}
	out.digest = f.sum()
	return out
}

// sweepRunner: pooled Consensus.Sweep on the trial engine's workers.
type sweepRunner struct {
	c       *modcon.Consensus
	n       int
	seed    uint64
	workers int
	rot     [2][]modcon.Value
}

func newSweepRunner(seed uint64, workers int) (runner, error) {
	c, err := modcon.NewBinary(32)
	if err != nil {
		return nil, err
	}
	return &sweepRunner{c: c, n: 32, seed: seed, workers: workers, rot: rotations(32)}, nil
}

func (w *sweepRunner) round(r, size int, tr *tracer) roundOut {
	out := roundOut{ops: size, lat: make([]int64, 0, size)}
	f := newFolder()
	rs := roundSeed(w.seed, r)
	// A trial's latency runs from its inputs hook, called when the trial
	// starts on a worker, to its fold into merge.
	starts := make([]int64, size)
	inputs := func(t modcon.Trial) []modcon.Value {
		starts[t.Index] = now()
		return w.rot[t.Index%2]
	}
	merge := func(t modcon.Trial, o *modcon.Outcome) {
		out.lat = append(out.lat, now()-starts[t.Index])
		out.judge(t.Index, w.rot[t.Index%2], o, nil, -1)
		f.fold(t.Index, o)
	}
	newSched := func() modcon.Scheduler { return modcon.NewFirstMoverAttack() }
	var err error
	if tr == nil {
		err = w.c.Sweep(size, newSched, inputs, merge, modcon.WithWorkers(w.workers), modcon.WithSeed(rs))
	} else {
		err = w.tracedSweep(tr, size, rs, newSched, inputs, merge)
	}
	if err != nil {
		out.problem(strings.Contains(err.Error(), "SAFETY VIOLATION"), "sweep: %v", err)
	}
	out.digest = f.sum()
	return out
}

// tracedSweep is (*Consensus).Sweep rebuilt on harness.SweepProtocol, the
// call it makes, with builds, sessions, schedulers, objects and hooks timed.
func (w *sweepRunner) tracedSweep(tr *tracer, size int, rs uint64, newSched func() modcon.Scheduler,
	inputs func(modcon.Trial) []modcon.Value, merge func(modcon.Trial, *modcon.Outcome)) error {
	rc := tr.beginRoot(w.workers)
	defer tr.endRoot(rc)
	root := tr.rootID
	newSched() // Sweep probes one scheduler to validate options
	if _, _, err := tracedBuild(tr, kRoot, root, w.n, newObjAcc(w.n)); err != nil {
		return err // Sweep's pre-flight build
	}
	be := timedBackend{Backend: sim.Backend(), tr: tr, parent: kRoot, parentID: root}
	spec := harness.ProtocolSweep{
		Build: func() (*core.Protocol, harness.ObjectConfig) {
			acc := newObjAcc(w.n)
			file, proto, err := tracedBuild(tr, kRoot, root, w.n, acc)
			if err != nil {
				panic(err) // unreachable: the pre-flight build succeeded
			}
			ts := &timedSched{Scheduler: newSched()}
			tr.later(func(t *tally) { ts.flushInto(t); acc.flushInto(t) })
			return proto, harness.ObjectConfig{N: w.n, File: file, Inputs: []modcon.Value{0}, Backend: be, Scheduler: ts}
		},
		Inputs: func(t harness.Trial) []modcon.Value {
			t0 := now()
			v := inputs(t)
			tr.record(kInputs, kCB, root, t0, now())
			return v
		},
	}
	var violation error
	violationAt := size
	err := harness.SweepProtocol(harness.Sweep{Trials: size, Workers: w.workers, Seed: rs}, spec,
		func(t harness.Trial, run *harness.ProtocolRun) {
			id := tr.reserve()
			t0 := now()
			o := outcomeOf(run, w.n, run.DecidedStage)
			if run.Violation != nil && t.Index < violationAt {
				violation, violationAt = run.Violation, t.Index
			}
			f0 := now()
			merge(t, o)
			tr.record(kFold, kMerge, id, f0, now())
			tr.finish(id, kMerge, kRoot, root, t0, now())
		})
	if err != nil {
		return err
	}
	if violation != nil {
		return fmt.Errorf("modcon: SAFETY VIOLATION (bug) in trial %d: %w", violationAt, violation)
	}
	return nil
}

// trialsRunner: the public robust Trials dispatcher running Solve per trial
// under faults, on regular registers.
type trialsRunner struct {
	c       *modcon.Consensus
	n       int
	seed    uint64
	workers int
	plan    *modcon.FaultPlan
	rot     [2][]modcon.Value
}

// trialsFaults crashes process 0 after five operations and loses a tenth of
// probabilistic-write coins; the crashed process is exempt from the
// termination check.
const trialsFaults = "crash:pid=0,after=5;losecoin:p=0.1"

func newTrialsRunner(seed uint64, workers int) (runner, error) {
	c, err := modcon.NewBinary(32)
	if err != nil {
		return nil, err
	}
	plan, err := modcon.ParseFaults(trialsFaults)
	if err != nil {
		return nil, err
	}
	return &trialsRunner{c: c, n: 32, seed: seed, workers: workers, plan: plan, rot: rotations(32)}, nil
}

func (w *trialsRunner) round(r, size int, tr *tracer) roundOut {
	out := roundOut{ops: size}
	f := newFolder()
	// A trial's latency is its Solve call on the worker. Timing it to the
	// fold instead would add the wait for earlier trials in the in-order
	// fold, which about half the trials pay, and make the median fall
	// between two modes.
	lat := make([]int64, size)
	var rc rootClock
	if tr != nil {
		rc = tr.beginRoot(w.workers)
	}
	rep, err := modcon.Trials(size, func(ctx context.Context, t modcon.Trial) (*modcon.Outcome, error) {
		in := w.rot[t.Index%2]
		cfg := modcon.RunConfig{Registers: modcon.Regular, Faults: w.plan, Context: ctx}
		t0 := now()
		defer func() { atomic.StoreInt64(&lat[t.Index], now()-t0) }()
		if tr == nil {
			return w.c.Solve(in, modcon.NewUniformRandom(), t.Seed, cfg)
		}
		return tracedSolve(tr, kRoot, tr.rootID, w.n, in, modcon.NewUniformRandom(), t.Seed, cfg)
	}, func(t modcon.Trial, o *modcon.Outcome, rep modcon.TrialReport) {
		out.lat = append(out.lat, atomic.LoadInt64(&lat[t.Index]))
		if rep.Outcome != modcon.TrialOK {
			out.problem(rep.Outcome == modcon.TrialViolated, "trial %d: %s: %v", t.Index, rep.Outcome, rep.Err)
		} else {
			out.judge(t.Index, w.rot[t.Index%2], o, nil, 0)
		}
		f.fold(t.Index, o)
	}, modcon.WithWorkers(w.workers), modcon.WithSeed(roundSeed(w.seed, r)))
	if tr != nil {
		tr.endRoot(rc)
	}
	if err != nil {
		out.problem(false, "trials: %v", err)
	} else if rep.Trials != size {
		out.problem(false, "trials: %d of %d trials classified", rep.Trials, size)
	}
	out.digest = f.sum()
	return out
}

// e6Runner: the E6 experiment, one full run per round. Its op is one trial,
// and its latency unit is one cell (n × adversary sweep), since the
// experiment exposes no per-trial outputs; the digest folds the rendered
// table. E6 builds its sweeps inside internal/exp, so its traced round runs
// it unchanged inside a root span: only the root, GC and the overhead are
// observable.
type e6Runner struct {
	seed    uint64
	workers int
}

func newE6Runner(seed uint64, workers int) (runner, error) {
	return &e6Runner{seed: seed, workers: workers}, nil
}

// cellClock records the end of every sweep from its final progress
// snapshot, which the harness emits on the caller's goroutine.
type cellClock struct {
	last int64
	lat  []int64
}

func (c *cellClock) Emit(s obs.Snapshot) {
	if s.Final {
		t := now()
		c.lat = append(c.lat, t-c.last)
		c.last = t
	}
}

func (w *e6Runner) round(r, size int, tr *tracer) (out roundOut) {
	clock := &cellClock{last: now()}
	cfg := exp.Config{Trials: size, Seed: roundSeed(w.seed, r), Workers: w.workers,
		Reporter: obs.NewReporter(clock, time.Hour)}
	var tab *exp.Table
	func() {
		// E6 checks every trial's agreement and validity and panics on a
		// violation.
		defer func() {
			if p := recover(); p != nil {
				out.problem(true, "E6 panicked: %v", p)
			}
		}()
		if tr != nil {
			rc := tr.beginRoot(w.workers)
			defer tr.endRoot(rc)
		}
		tab = exp.E6BinaryConsensus(cfg)
	}()
	out.lat = clock.lat
	if tab == nil {
		out.ops = max(1, len(out.lat)) * size
		out.violations = out.ops
		return out
	}
	out.ops = len(tab.Rows) * size
	if tab.Violations > 0 {
		out.problem(true, "E6 reported %d violations", tab.Violations)
	}
	if len(out.lat) != len(tab.Rows) {
		out.problem(false, "E6 ran %d sweeps for %d rows", len(out.lat), len(tab.Rows))
	}
	out.digest = sha256.Sum256([]byte(tab.String()))
	return out
}
