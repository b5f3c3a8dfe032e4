// Pooled execution sessions.
//
// A sweep runs many trials of one cell — one (object, n, adversary, fault
// plan) configuration — varying only the seed and possibly the inputs. Before
// the exec.Session seam, every trial paid the full construction cost again:
// a fresh object, register file, scheduler, compiled fault injector, and (on
// sim) n coroutines with all their buffers. The session types here construct
// that cell once per pooled session and replay it per trial through
// exec.Session.Run(ctx, seed), which on reusable backends (sim) rewinds the
// engine in place — zero allocations per trial below the harness.
//
// The pool hands each worker a session for the duration of one trial.
// Sessions return to the pool only on normal return: a trial that panics
// never executes the put, so a session whose engine may be mid-unwind
// (poisoned) is abandoned rather than recycled, and a session that reports
// exec.ErrSessionPoisoned is closed on the spot. The robust trial engine's
// abandoned attempts (deadline overruns that never came back) keep their
// session checked out forever — leaking one session is the price of never
// reusing state a runaway goroutine might still be touching.
//
// Determinism: a trial's outcome is a pure function of (cell, seed, inputs).
// Engine.Reset restores registers, scheduler state, and RNG streams from the
// seed alone, so which pooled session runs a trial — and how many trials it
// ran before — cannot affect the result. Sweep aggregates therefore stay
// bit-identical at any worker count, pooled or not.
package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// ObjectSweep describes one object cell of a sweep.
type ObjectSweep struct {
	// Build constructs the cell: a fresh object and its configuration
	// (register file, scheduler, faults, …). It is called once per pooled
	// session — at most once per worker, not once per trial — so everything
	// it builds is reused across that session's trials. Config.Seed and
	// Config.Context are ignored (each trial's seed and context are supplied
	// by the engine); Config.Inputs is the default input assignment.
	Build func() (core.Object, ObjectConfig)
	// Inputs, if non-nil, overrides the configuration's inputs per trial
	// (same resolution rule: one value per process, or a single value
	// broadcast to all). Returning nil keeps the config's inputs for that
	// trial.
	Inputs func(t Trial) []value.Value
}

// ProtocolSweep describes one protocol cell of a sweep, mirroring
// ObjectSweep.
type ProtocolSweep struct {
	// Build constructs the cell's protocol and configuration; see
	// ObjectSweep.Build for the once-per-session contract.
	Build func() (*core.Protocol, ObjectConfig)
	// Inputs optionally overrides the configuration's inputs per trial; see
	// ObjectSweep.Inputs.
	Inputs func(t Trial) []value.Value
}

// errPoolClosed is returned by sessionPool.get after closeAll; it can only
// surface when a worker races the sweep's teardown, by which point the sweep
// is already ending.
var errPoolClosed = errors.New("harness: session pool closed")

// sessionPool hands out sessions to workers, one per in-flight trial. make
// is called when the free list is empty, so a sweep creates at most
// workers-many sessions (plus replacements for discarded ones).
type sessionPool[S any] struct {
	make  func() (S, error)
	close func(S)

	mu     sync.Mutex
	free   []S
	closed bool
}

func newSessionPool[S any](mk func() (S, error), cl func(S)) *sessionPool[S] {
	return &sessionPool[S]{make: mk, close: cl}
}

func (p *sessionPool[S]) get() (S, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		var zero S
		return zero, errPoolClosed
	}
	return p.make()
}

// put returns a session to the free list. After closeAll (a late put from an
// attempt that outlived the sweep) the session is closed instead — the pool
// never resurrects.
func (p *sessionPool[S]) put(s S) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.close(s)
		return
	}
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// closeAll closes every free session and marks the pool closed. Sessions
// still checked out by abandoned attempts are not touched — their goroutines
// may be live inside Run — and are closed (or leaked, if the attempt never
// returns) via the late-put path.
func (p *sessionPool[S]) closeAll() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.closed = true
	p.mu.Unlock()
	for _, s := range free {
		p.close(s)
	}
}

// cloneResult deep-copies a session-owned Result so the merge goroutine (and
// anything the caller's merge retains) stays valid while the session's
// buffers are overwritten by its next trial.
func cloneResult(r *exec.Result) *exec.Result {
	if r == nil {
		return nil
	}
	cp := *r
	cp.Outputs = append([]value.Value(nil), r.Outputs...)
	cp.Halted = append([]bool(nil), r.Halted...)
	cp.Crashed = append([]bool(nil), r.Crashed...)
	if r.Stalled != nil {
		cp.Stalled = append([]bool(nil), r.Stalled...)
	}
	cp.Work = append([]int(nil), r.Work...)
	cp.Trace = nil // the caller attaches its own trace snapshot
	return &cp
}

// sessionInputs owns the per-trial input resolution shared by both session
// kinds: a base assignment resolved once at build, a per-trial override hook,
// and the live buffer the program closures read.
type sessionInputs struct {
	n    int
	base []value.Value // resolved cfg.Inputs (len n)
	hook func(t Trial) []value.Value
	live []value.Value // what programs read; rewritten per trial
}

func (si *sessionInputs) set(t Trial) error {
	src := si.base
	if si.hook != nil {
		if vals := si.hook(t); vals != nil {
			src = vals
		}
	}
	switch len(src) {
	case si.n:
		copy(si.live, src)
	case 1:
		for i := range si.live {
			si.live[i] = src[0]
		}
	default:
		return fmt.Errorf("harness: %d inputs for %d processes", len(src), si.n)
	}
	return nil
}

// objectSession is one pooled cell of an object sweep: a built object, its
// backend session, and the buffers its program closures write into.
type objectSession struct {
	sess      exec.Session
	in        sessionInputs
	decisions []value.Decision
	log       *trace.Log // session-owned; reset by the engine each trial
}

func newObjectSession(s Sweep, spec ObjectSweep) (*objectSession, error) {
	obj, cfg := spec.Build()
	cfg.Meter = s.Meter
	be, err := cfg.backend()
	if err != nil {
		return nil, err
	}
	base, err := cfg.inputs()
	if err != nil {
		return nil, err
	}
	os := &objectSession{
		in:        sessionInputs{n: cfg.N, base: base, hook: spec.Inputs, live: make([]value.Value, cfg.N)},
		decisions: make([]value.Decision, cfg.N),
	}
	if cfg.Traced {
		os.log = trace.New()
	}
	prog := func(e core.Env) value.Value {
		v := os.in.live[e.PID()]
		e.MarkInvoke(obj.Label(), v)
		d := obj.Invoke(e, v)
		e.MarkReturn(obj.Label(), d)
		os.decisions[e.PID()] = d
		return d.V
	}
	os.sess, err = be.NewSession(cfg.execConfig(os.log), prog)
	if err != nil {
		return nil, err
	}
	return os, nil
}

// runTrial executes one trial and returns a fully detached ObjectRun: the
// Result, Decisions, and Trace are deep snapshots, safe to retain while the
// session moves on to its next trial.
func (os *objectSession) runTrial(ctx context.Context, t Trial) (*ObjectRun, error) {
	if err := os.in.set(t); err != nil {
		return nil, err
	}
	for i := range os.decisions {
		os.decisions[i] = value.Decision{V: value.None}
	}
	res, err := os.sess.Run(ctx, t.Seed)
	run := &ObjectRun{
		Result:    cloneResult(res),
		Decisions: append([]value.Decision(nil), os.decisions...),
		Trace:     os.log.Clone(),
	}
	if run.Result != nil {
		run.Result.Trace = run.Trace
	}
	return run, err
}

func (os *objectSession) close() { _ = os.sess.Close() }

// protocolSession is one pooled cell of a protocol sweep. Decisions are
// recorded through core.Protocol.RunIndexed, which leaves the protocol's own
// decided-at instrumentation untouched — the session keeps per-trial indices
// in its own buffers, so the merge goroutine can read trial k's snapshot
// while this session already runs trial k+1.
type protocolSession struct {
	sess       exec.Session
	in         sessionInputs
	decided    []bool
	decidedIdx []int32
	mon        *check.Monitor // fresh per trial
	stageOf    func(idx int) (stage int, fallback bool)
	log        *trace.Log
}

func newProtocolSession(s Sweep, spec ProtocolSweep) (*protocolSession, error) {
	proto, cfg := spec.Build()
	cfg.Meter = s.Meter
	be, err := cfg.backend()
	if err != nil {
		return nil, err
	}
	base, err := cfg.inputs()
	if err != nil {
		return nil, err
	}
	ps := &protocolSession{
		in:         sessionInputs{n: cfg.N, base: base, hook: spec.Inputs, live: make([]value.Value, cfg.N)},
		decided:    make([]bool, cfg.N),
		decidedIdx: make([]int32, cfg.N),
		stageOf:    proto.StageOfIndex,
	}
	if cfg.Traced {
		ps.log = trace.New()
	}
	prog := func(e core.Env) value.Value {
		out, idx, ok := proto.RunIndexed(e, ps.in.live[e.PID()])
		ps.decided[e.PID()] = ok
		ps.decidedIdx[e.PID()] = int32(idx)
		if ok {
			ps.mon.Observe(e.PID(), out)
		}
		return out
	}
	ps.sess, err = be.NewSession(cfg.execConfig(ps.log), prog)
	if err != nil {
		return nil, err
	}
	return ps, nil
}

func (ps *protocolSession) runTrial(ctx context.Context, t Trial) (*ProtocolRun, error) {
	if err := ps.in.set(t); err != nil {
		return nil, err
	}
	for i := range ps.decided {
		ps.decided[i] = false
		ps.decidedIdx[i] = -1
	}
	// The monitor checks each decision online as it lands; it must be fresh
	// per trial (it accumulates the first observed decision) and built after
	// the trial's inputs are in place (it checks validity against them).
	ps.mon = check.NewMonitor(ps.in.live)
	res, err := ps.sess.Run(ctx, t.Seed)
	run := &ProtocolRun{
		Result:     cloneResult(res),
		Decided:    append([]bool(nil), ps.decided...),
		DecidedIdx: append([]int32(nil), ps.decidedIdx...),
		Violation:  ps.mon.Err(),
		Trace:      ps.log.Clone(),
		stageOf:    ps.stageOf,
	}
	if run.Result != nil {
		run.Result.Trace = run.Trace
	}
	return run, err
}

func (ps *protocolSession) close() { _ = ps.sess.Close() }

// pooledTrial wraps a session pool around one trial: check a session out,
// run, and return it only on a clean, unpoisoned return. A panic inside
// runTrial skips the put — the session is never reused — and a session that
// reports itself poisoned is closed immediately.
func pooledTrial[S any, R any](pool *sessionPool[S], ctx context.Context, t Trial,
	runTrial func(S, context.Context, Trial) (R, error), closeSess func(S)) (R, error) {
	sess, err := pool.get()
	if err != nil {
		var zero R
		return zero, err
	}
	run, err := runTrial(sess, ctx, t)
	if errors.Is(err, exec.ErrSessionPoisoned) {
		closeSess(sess)
	} else {
		pool.put(sess)
	}
	return run, err
}
