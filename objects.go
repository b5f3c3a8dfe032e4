package modcon

import (
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/adoptcommit"
	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fallback"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/setagree"
	"github.com/modular-consensus/modcon/internal/sharedcoin"
	"github.com/modular-consensus/modcon/internal/tas"
	"github.com/modular-consensus/modcon/internal/trace"
)

// This file exposes the paper's individual objects so users can assemble
// protocols of their own — the whole point of the modular decomposition.
// Objects are one-shot: construct fresh instances per execution, all
// against the same register file, and run them with Simulate.

// NewImpatientConciliator allocates the paper's conciliator for n processes
// (Theorem 7) in file: one register, agreement probability ≥ (1-e^{-1/4})/4
// against any location-oblivious adversary, O(log n) individual work.
// Arbitrary non-negative input values are supported.
func NewImpatientConciliator(file *Registers, n, index int) Object {
	return conciliator.NewImpatient(file, n, index)
}

// NewConstantRateConciliator allocates the Chor–Israeli–Li / Cheung
// baseline conciliator (Θ(1/n) write probability, Θ(n) individual work).
func NewConstantRateConciliator(file *Registers, n, index int) Object {
	return conciliator.NewConstantRate(file, n, index)
}

// NewCoinConciliator allocates the 2-valued conciliator of Theorem 6 over a
// voting weak shared coin for n processes.
func NewCoinConciliator(file *Registers, n, index int) Object {
	return conciliator.NewFromCoin(file, sharedcoin.NewVoting(file, n, index), index)
}

// NewRatifier allocates an m-valued deterministic ratifier (Theorem 8) in
// file, using the binary scheme for m = 2 and the Bollobás-optimal pool
// scheme otherwise: lg m + Θ(log log m) registers and individual work
// (Theorem 10).
func NewRatifier(file *Registers, m, index int) (Object, error) {
	if m < 2 {
		return nil, fmt.Errorf("modcon: ratifier needs m ≥ 2, got %d", m)
	}
	if m == 2 {
		return ratifier.NewBinary(file, index), nil
	}
	return ratifier.NewPool(file, m, index), nil
}

// AdoptCommitStatus is the outcome flag of an adopt-commit object.
type AdoptCommitStatus = adoptcommit.Status

// Adopt-commit outcome values.
const (
	Adopt  = adoptcommit.Adopt
	Commit = adoptcommit.Commit
)

// AdoptCommit is an m-valued adopt-commit object — the interface later
// literature standardized for exactly what the paper's ratifiers do.
type AdoptCommit = adoptcommit.Object

// NewAdoptCommit allocates an m-valued adopt-commit object in file.
func NewAdoptCommit(file *Registers, m, index int) *AdoptCommit {
	return adoptcommit.New(file, m, index)
}

// NewCILConsensus allocates the bounded-space Chor–Israeli–Li-style
// round-race consensus object (used as the fallback K of §4.1.2, but a full
// consensus object in its own right) for n processes: n registers,
// polynomial expected work under probabilistic writes.
func NewCILConsensus(file *Registers, n, index int) Object {
	return fallback.New(file, n, index)
}

// Proc is the body of one process in a custom simulation: it receives its
// environment and returns the process's final value.
type Proc func(e Env) Value

// SimResult reports a custom execution (on either backend).
type SimResult struct {
	// Outputs holds each process's return value (None if it crashed or the
	// step limit cut the run short).
	Outputs []Value
	// Halted, Crashed, and Stalled report per-process fates (Stalled is
	// nil unless the fault plan contained stall faults).
	Halted  []bool
	Crashed []bool
	Stalled []bool
	// Work is the per-process operation count; TotalWork their sum.
	Work      []int
	TotalWork int
	// Trace is non-nil when RunConfig.Traced was set.
	Trace *Trace
}

// Simulate runs n copies of proc (each sees its PID via the Env) against
// the registers in file under the adversary s — the building block for
// custom protocols assembled from the exported objects:
//
//	file := modcon.NewRegisters()
//	c := modcon.NewImpatientConciliator(file, n, 1)
//	r, _ := modcon.NewRatifier(file, m, 1)
//	chain := modcon.Compose(c, r)
//	res, _ := modcon.Simulate(n, file, modcon.NewUniformRandom(), seed,
//	    func(e modcon.Env) modcon.Value {
//	        d := chain.Invoke(e, modcon.Value(e.PID()%2))
//	        return d.V
//	    })
//
// With RunConfig.Backend set to Live the same proc runs as free-running
// goroutines over atomic registers; pass a nil scheduler there.
func Simulate(n int, file *Registers, s Scheduler, seed uint64, proc Proc, run ...RunConfig) (*SimResult, error) {
	var rc RunConfig
	switch len(run) {
	case 0:
	case 1:
		rc = run[0]
	default:
		return nil, errors.New("modcon: pass at most one RunConfig")
	}
	if err := rc.Backend.validateOptions(s, rc.Power, rc.Traced, rc.Registers); err != nil {
		return nil, err
	}
	be, err := rc.Backend.impl()
	if err != nil {
		return nil, err
	}
	var tr *Trace
	if rc.Traced {
		tr = trace.New()
	}
	sess, err := be.NewSession(exec.Config{
		N: n, File: file, Scheduler: s,
		Trace: tr, CheapCollect: rc.CheapCollect, Registers: rc.Registers,
		Faults:   fault.Merge(rc.Faults, fault.FromCrashMap(rc.CrashAfter)),
		MaxSteps: rc.MaxSteps,
	}, exec.Program(proc))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	res, err := sess.Run(rc.Context, seed)
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Outputs:   res.Outputs,
		Halted:    res.Halted,
		Crashed:   res.Crashed,
		Stalled:   res.Stalled,
		Work:      res.Work,
		TotalWork: res.TotalWork,
		Trace:     tr,
	}, nil
}

// CheckConsensus verifies agreement and validity of outputs against inputs;
// use it after running custom protocols (crashed/undecided processes should
// be excluded by the caller).
func CheckConsensus(inputs, outputs []Value) error {
	return check.Consensus(inputs, outputs)
}

// SetAgreement is a one-shot k-set agreement object (at most k distinct
// outputs, each some process's input), built as k independent per-group
// instances of the paper's consensus protocol.
type SetAgreement = setagree.Protocol

// NewSetAgreement allocates a k-set agreement object for n processes over
// values 0..m-1 in file; run it with Simulate and its Run method.
func NewSetAgreement(file *Registers, n, m, k int) (*SetAgreement, error) {
	return setagree.New(file, n, m, k)
}

// TASOutcome is a test-and-set result (Win or Lose).
type TASOutcome = tas.Outcome

// Test-and-set outcomes.
const (
	TASLose = tas.Lose
	TASWin  = tas.Win
)

// TestAndSet is a one-shot n-process test-and-set (leader election) object
// built as a tournament of the paper's 2-process consensus instances:
// exactly one completing process receives TASWin.
type TestAndSet = tas.TAS

// NewTestAndSet allocates a test-and-set object for n processes in file;
// run it with Simulate and its Invoke method.
func NewTestAndSet(file *Registers, n int) (*TestAndSet, error) {
	return tas.New(file, n)
}
