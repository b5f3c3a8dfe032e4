// Execution sessions: the one path every object and protocol execution in
// this package takes.
//
// A sweep runs many trials of one cell — one (object, n, adversary, fault
// plan) configuration — varying only the seed and possibly the inputs. The
// session types here construct that cell once — the object, its program
// closure, and an exec.Session over it — and replay it per trial through
// exec.Session.Run(ctx, seed), which on sim rewinds the engine in place:
// zero allocations per trial below the harness. RunObject and RunProtocol
// are one trial of a fresh session; a Pool keeps one session per worker
// across the sweeps of cells that differ only in their adversary, and a
// ProtocolInstance keeps one open across single executions of one shape.
//
// Each session owns its run (ObjectRun or ProtocolRun) and every buffer the
// run points to, and returns it by pointer, rewritten by the session's next
// trial. So a pooled sweep's run is valid only during the merge call that
// receives it. A strict sweep folds the run that is next by trial index in
// place, while its worker still holds the session, and only a run that has
// to wait for a trial below it is copied: into a snapshot buffer from the
// pool's free list, which goes back to the list once the fold has consumed
// the run. A robust attempt, whose session goes back before the fold,
// copies every run into the same buffers.
//
// A sim session holds its processes' parked coroutines, and the runtime
// aborts the program when a goroutine resumes or stops a coroutine in a
// different OS-thread lock state than the one it was created in. Sessions
// that outlive one call are therefore created, run and closed only on
// goroutines the harness starts, which never lock their thread: a caller
// that has called runtime.LockOSThread never touches them. A
// ProtocolInstance runs its kept session on a runner, a goroutine it
// starts with the session and keeps, so a warm execution starts none.
//
// The pool hands each worker a session for the duration of one trial and
// its fold. Sessions return to the pool only on normal return: a trial that
// panics never reaches the put, so a session whose engine may be mid-unwind
// (poisoned) is closed as the panic leaves the trial rather than recycled,
// and a session that reports exec.ErrSessionPoisoned is closed instead of
// put back.
// The robust trial engine's abandoned attempts (deadline overruns that never
// came back) keep their session checked out forever — leaking one session
// is the price of never reusing state a runaway runner might still be
// touching.
//
// Determinism: a trial's outcome is a pure function of (cell, seed, inputs).
// A sim session's Run restores registers, scheduler state (it seeds the
// installed scheduler), and RNG streams from the seed alone before the
// trial, so which pooled session runs a trial — and how many trials of
// which sweeps it ran before — cannot affect the result. Sweep aggregates
// therefore stay bit-identical at any worker count, pooled or not.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
)

// ObjectSweep describes one object cell of a sweep.
type ObjectSweep struct {
	// Build constructs the cell: a fresh object and its configuration
	// (register file, scheduler, faults, …). It is called once per session
	// of a pool — at most once per worker across all the pool's sweeps, not
	// once per trial — so everything it builds is reused across that
	// session's trials. Config.Seed and Config.Context are ignored (each
	// trial's seed and context are supplied by the engine), and so is
	// Config.Meter (the pool's sweeps supply it); Config.Scheduler is the
	// session's adversary until a sweep installs its own (see Pool.Sweep),
	// and Config.Inputs is the default input assignment.
	Build func() (core.Object, ObjectConfig)
	// Inputs, if non-nil, overrides the configuration's inputs per trial
	// (same resolution rule: one value per process, or a single value
	// broadcast to all). Returning nil keeps the config's inputs for that
	// trial. A config without inputs takes every trial's inputs from Inputs,
	// and a nil return is then that trial's error.
	Inputs func(t Trial) []value.Value
}

// ProtocolSweep describes one protocol cell of a sweep, mirroring
// ObjectSweep.
type ProtocolSweep struct {
	// Build constructs the cell's protocol and configuration; see
	// ObjectSweep.Build for the once-per-session contract and the fields
	// the pool overrides.
	Build func() (*core.Protocol, ObjectConfig)
	// Inputs optionally overrides the configuration's inputs per trial; see
	// ObjectSweep.Inputs.
	Inputs func(t Trial) []value.Value
}

// cell is one pooled session of a sweep: *objectSession or *protocolSession.
type cell[R any] interface {
	// runTrial executes one trial. The run it returns is the session's own,
	// rewritten by the session's next trial.
	runTrial(ctx context.Context, t Trial) (R, error)
	// session is the backend session, on which a sweep installs its
	// adversary.
	session() exec.Session
	close()
}

// snapshot is a trial run that can copy itself out of its session:
// *ObjectRun or *ProtocolRun.
type snapshot[R any] interface {
	comparable
	// copyTo copies the run into dst's storage, allocating a zero dst, and
	// returns dst.
	copyTo(dst R) R
}

// Pool is a pool of sessions of one cell, kept across sweeps: a caller
// that runs several sweeps of one cell shape — an experiment's adversary
// axis, where the cells differ only in their adversary — keeps one pool
// for all of them, so each worker builds the cell and spawns its processes
// once rather than once per sweep. ProtocolPool and ObjectPool are its two
// kinds, opened by NewProtocolPool and NewObjectPool; SweepProtocol,
// SweepObject and SweepProtocolRobust each run one sweep on a fresh pool
// and close it.
//
// The pool hands each worker a session for the duration of one trial and
// its fold, building one from the cell when the free list is empty, so it
// holds at most as many sessions as its widest sweep had workers (plus
// replacements for discarded ones). It also keeps the buffers that parked
// runs are copied into (see park), one for each run parked at the same
// time, and the reorder ring of its sweeps' fold (see dispatch), which
// later sweeps reuse. Both free lists are plain slices, not sync.Pools,
// for the reason the root package's Solve list is: a sync.Pool is cleared
// at GC, so a sweep's allocation count would vary from run to run.
//
// The caller that opens a pool owns it: it runs one sweep at a time on it
// and closes it with Close once its last sweep has returned.
type Pool[R snapshot[R], S cell[R]] struct {
	// make builds a session that counts its steps into meter and, when adv
	// is non-nil, runs under adv instead of its cell's own adversary.
	make func(meter *obs.Meter, adv sched.Scheduler) (S, error)

	mu     sync.Mutex
	free   []pooled[S]
	snaps  []R // snapshot buffers no parked run holds
	closed bool
	// reorder is the fold's reorder ring, kept across sweeps; only the
	// running sweep's fold touches it, under its own lock.
	reorder []outcome[R]
	// sweeps counts the sweeps begun; newSched is the running sweep's
	// adversary, installs records that a sweep has brought one, and meter
	// is the Meter of the pool's first sweep.
	sweeps   int
	newSched func() sched.Scheduler
	installs bool
	meter    *obs.Meter
}

// pooled is a pool's session with the sweep it last served (see Pool.get).
type pooled[S any] struct {
	sess  S
	sweep int
}

// ProtocolPool is the Pool of a protocol cell.
type ProtocolPool = Pool[*ProtocolRun, *protocolSession]

// ObjectPool is the Pool of an object cell.
type ObjectPool = Pool[*ObjectRun, *objectSession]

// NewProtocolPool opens a pool of spec's sessions. spec.Build runs once per
// session, on the worker that first needs it.
func NewProtocolPool(spec ProtocolSweep) *ProtocolPool {
	return &ProtocolPool{make: func(meter *obs.Meter, adv sched.Scheduler) (*protocolSession, error) {
		proto, cfg := spec.Build()
		cfg.Meter = meter
		if adv != nil {
			cfg.Scheduler = adv
		}
		return newProtocolSession(proto, cfg, spec.Inputs)
	}}
}

// NewObjectPool opens a pool of spec's sessions, like NewProtocolPool.
func NewObjectPool(spec ObjectSweep) *ObjectPool {
	return &ObjectPool{make: func(meter *obs.Meter, adv sched.Scheduler) (*objectSession, error) {
		obj, cfg := spec.Build()
		cfg.Meter = meter
		if adv != nil {
			cfg.Scheduler = adv
		}
		return newObjectSession(obj, cfg, spec.Inputs)
	}}
}

// Sweep runs one execution of the pool's cell per trial of s and merges
// the runs in trial order, on the strict policy (RunTrials): at any worker
// count, and whatever the pool's earlier sweeps ran, each trial equals a
// RunObject or RunProtocol of the cell at the trial's seed and inputs,
// under the sweep's adversary. A run merge receives is valid only during
// that merge call: the trial that is next is merged in its session's own
// buffers, and a trial that finished early from a copy whose buffer the
// pool reuses. A merge that keeps anything of a run copies it.
//
// newSched, if non-nil, is the sweep's adversary. A session that the sweep
// builds takes newSched() at construction; a kept session takes one through
// its backend session's SetScheduler the first time it serves the sweep
// (the sim backend's can; a backend without adversary control fails the
// trial). The engine seeds the installed scheduler before every trial, so a
// trial on a kept session is the trial on a fresh one. A nil newSched runs
// each session under the adversary its Build made.
//
// A pool's sessions count their steps into the Meter of its first sweep; a
// later sweep whose Meter differs is an error and runs no trial. So are a
// sweep with a nil newSched on a pool that an earlier sweep brought an
// adversary to (its sessions no longer hold their Build's), and a sweep on
// a closed pool.
func (p *Pool[R, S]) Sweep(s Sweep, newSched func() sched.Scheduler, merge func(t Trial, run R)) error {
	if err := p.begin(s, newSched); err != nil {
		return err
	}
	return runStrict(s, p.foldTrial, merge, p)
}

// begin makes s, under the adversary newSched, the pool's running sweep.
func (p *Pool[R, S]) begin(s Sweep, newSched func() sched.Scheduler) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		return errors.New("harness: sweep on a closed pool")
	case p.sweeps > 0 && s.Meter != p.meter:
		return errors.New("harness: a sweep's Meter differs from the one its pool's sessions count into")
	case newSched == nil && p.installs:
		return errors.New("harness: a sweep without an adversary on a pool whose sessions run an earlier sweep's")
	}
	p.sweeps++
	p.newSched, p.meter = newSched, s.Meter
	p.installs = p.installs || newSched != nil
	return nil
}

// get checks out a session for the running sweep: a free one, or a new one
// when the free list is empty. A free session that has not served this
// sweep yet takes the sweep's adversary first; if it cannot, it goes back
// to the free list and get returns the error.
func (p *Pool[R, S]) get() (pooled[S], error) {
	p.mu.Lock()
	sweep, newSched, meter := p.sweeps, p.newSched, p.meter
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		var adv sched.Scheduler
		if newSched != nil {
			adv = newSched()
		}
		s, err := p.make(meter, adv)
		return pooled[S]{s, sweep}, err
	}
	m := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	if m.sweep != sweep && newSched != nil {
		if err := schedule(m.sess.session(), newSched()); err != nil {
			p.put(m)
			return m, err
		}
	}
	m.sweep = sweep
	return m, nil
}

// put returns a session to the free list. After Close (a late put from an
// attempt that outlived its sweep) the session is closed instead — the pool
// never resurrects.
func (p *Pool[R, S]) put(m pooled[S]) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		m.sess.close()
		return
	}
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// Close closes every free session and ends the pool. Sessions still checked
// out by abandoned robust attempts are not touched — their goroutines may
// be live inside Run — and are closed (or leaked, if the attempt never
// returns) via the late-put path. The workers that created the sessions
// were harness goroutines, so the closing happens on one too. Closing a
// closed pool does nothing.
func (p *Pool[R, S]) Close() {
	p.mu.Lock()
	free := p.free
	p.free, p.snaps, p.reorder, p.newSched = nil, nil, nil, nil
	p.closed = true
	p.mu.Unlock()
	onHarnessGoroutine(func() {
		for _, m := range free {
			m.sess.close()
		}
	})
}

// onHarnessGoroutine runs f on a goroutine the harness starts and waits for
// it: the rule that keeps a thread-locked caller away from session
// coroutines (see the file comment).
func onHarnessGoroutine(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	<-done
}

// runner is a goroutine the harness starts and keeps, so that calls which
// must leave their caller's goroutine do not start one each: the
// executions on a ProtocolInstance's kept session, and the attempts of a
// robust sweep. It never locks its OS thread, so it may open, run and close
// sessions (see the file comment). It runs one call at a time: start hands
// it f, and done then delivers nil if f returned, or else f's panic value,
// or errGoexit if f called runtime.Goexit. A runner whose call did not
// return has exited. Its callers hand it method values bound once, so a
// call allocates nothing.
type runner struct {
	calls chan func()
	// done holds one report, so a runner whose caller stopped waiting (an
	// abandoned robust attempt) still ends its call and exits.
	done chan any
}

// newRunner starts a runner.
func newRunner() *runner {
	r := &runner{calls: make(chan func()), done: make(chan any, 1)}
	go r.serve()
	return r
}

func (r *runner) serve() {
	for f := range r.calls {
		if !r.exec(f) {
			return
		}
	}
}

// exec runs f and reports how it ended; it returns whether f returned.
func (r *runner) exec(f func()) (returned bool) {
	defer func() {
		if !returned {
			p := recover()
			if p == nil {
				p = errGoexit // Goexit leaves nothing to recover
			}
			r.done <- p
		}
	}()
	f()
	r.done <- nil
	return true
}

// start hands f to the idle runner; done reports how it ends.
func (r *runner) start(f func()) { r.calls <- f }

// call runs f on the idle runner and returns done's report.
func (r *runner) call(f func()) any {
	r.calls <- f
	return <-r.done
}

// stop ends the runner: at once if it is idle, or else once its call
// returns. Nothing waits for it to exit, since it holds nothing then.
func (r *runner) stop() { close(r.calls) }

// foldTrial runs trial t on a pooled session and hands the outcome to
// fold while the session is still checked out, so the fold can consume the
// session's own run in place (or park a copy of it); the session goes back
// to the pool only after the fold. A session whose runTrial does not return
// (a panic, or Goexit) is closed on the way out, which stops its parked
// processes, and the panic goes on to the dispatcher's recover; a session
// that reports itself poisoned is closed before the fold, and one whose
// fold does not return (a callback's Goexit) after it. None is reused.
// foldTrial runs on a harness worker or an attempt's runner, so the close
// keeps the thread-lock rule of the file comment.
func (p *Pool[R, S]) foldTrial(ctx context.Context, t Trial, fold func(outcome[R])) {
	m, err := p.get()
	if err != nil {
		fold(outcome[R]{trial: t, err: err})
		return
	}
	held := true // checked out, neither closed nor put back
	defer func() {
		if held {
			m.sess.close()
		}
	}()
	run, err := m.sess.runTrial(ctx, t)
	if errors.Is(err, exec.ErrSessionPoisoned) {
		held = false
		m.sess.close()
	}
	fold(outcome[R]{trial: t, result: run, err: err})
	if held {
		held = false
		p.put(m)
	}
}

// parkedTrial runs trial t like foldTrial but returns a parked copy of the
// run instead of folding it: the robust policy's attempts run on goroutines
// of their own and may be abandoned, so their sessions go back to the pool
// before the fold sees the run.
func (p *Pool[R, S]) parkedTrial(ctx context.Context, t Trial) (run R, err error) {
	p.foldTrial(ctx, t, func(oc outcome[R]) { run, err = p.park(oc.result), oc.err })
	return run, err
}

// park copies a session's run into a snapshot buffer from the free list,
// allocating one only when the list is empty, so the copy stays valid after
// the session runs its next trial. A zero run parks as itself.
func (p *Pool[R, S]) park(run R) R {
	var buf R
	if run == buf {
		return run
	}
	p.mu.Lock()
	if n := len(p.snaps); n > 0 {
		buf = p.snaps[n-1]
		p.snaps = p.snaps[:n-1]
	}
	p.mu.Unlock()
	return run.copyTo(buf)
}

// unpark returns a parked run's buffer to the free list once the fold has
// consumed the run.
func (p *Pool[R, S]) unpark(snap R) {
	var zero R
	if snap == zero {
		return
	}
	p.mu.Lock()
	p.snaps = append(p.snaps, snap)
	p.mu.Unlock()
}

// ring implements parker: the pool keeps its sweeps' reorder ring.
func (p *Pool[R, S]) ring() *[]outcome[R] { return &p.reorder }

// copyResult copies a session-owned Result into dst's storage (allocating a
// nil dst), attaching the trace copy tr. A nil src copies to nil.
func copyResult(dst, src *exec.Result, tr *trace.Log) *exec.Result {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = new(exec.Result)
	}
	outputs, halted, crashed, stalled, work := dst.Outputs, dst.Halted, dst.Crashed, dst.Stalled, dst.Work
	*dst = *src
	dst.Outputs = refill(outputs, src.Outputs)
	dst.Halted = refill(halted, src.Halted)
	dst.Crashed = refill(crashed, src.Crashed)
	dst.Stalled = refill(stalled, src.Stalled)
	dst.Work = refill(work, src.Work)
	dst.Trace = tr
	return dst
}

// refill copies src into dst's storage, growing it as needed. A nil src
// refills to nil, as Result.Stalled is nil without stall faults.
func refill[E any](dst, src []E) []E {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
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

// of returns trial t's inputs: the hook's, or else the base assignment.
func (si *sessionInputs) of(t Trial) []value.Value {
	if si.hook != nil {
		if vals := si.hook(t); vals != nil {
			return vals
		}
	}
	return si.base
}

// set resolves src (one value per process, or one for all) into live. A
// nil src comes from a session without a base assignment whose hook
// returned nil.
func (si *sessionInputs) set(src []value.Value) error {
	switch len(src) {
	case si.n:
		copy(si.live, src)
	case 1:
		for i := range si.live {
			si.live[i] = src[0]
		}
	default:
		if src == nil {
			return errors.New("harness: the inputs func returned nil, and the config has no inputs")
		}
		return fmt.Errorf("harness: %d inputs for %d processes", len(src), si.n)
	}
	return nil
}

// objectSession is one object cell: a built object, its backend session,
// and the run its program closure writes into. RunObject runs one trial of
// a fresh session; SweepObject pools them.
type objectSession struct {
	sess exec.Session
	in   sessionInputs
	out  ObjectRun  // the latest trial's run; Decisions is written in place
	log  *trace.Log // session-owned; reset by the engine each trial
}

// newObjectSession builds obj's program closure — the one every execution
// of an object runs — and a backend session over it. hook, if non-nil,
// overrides cfg.Inputs per trial; cfg.Seed and cfg.Context are per-trial
// and ignored here.
func newObjectSession(obj core.Object, cfg ObjectConfig, hook func(Trial) []value.Value) (*objectSession, error) {
	base, err := cfg.inputs(hook)
	if err != nil {
		return nil, err
	}
	os := &objectSession{
		in:  sessionInputs{n: cfg.N, base: base, hook: hook, live: make([]value.Value, cfg.N)},
		out: ObjectRun{Decisions: make([]value.Decision, cfg.N)},
	}
	if cfg.Traced {
		os.log = trace.New()
	}
	// Per-process slots of decisions are written only by their own process,
	// so the recording is race-free even on concurrent backends.
	prog := func(e core.Env) value.Value {
		v := os.in.live[e.PID()]
		e.MarkInvoke(obj.Label(), v)
		d := obj.Invoke(e, v)
		e.MarkReturn(obj.Label(), d)
		os.out.Decisions[e.PID()] = d
		return d.V
	}
	os.sess, err = cfg.backend().NewSession(cfg.execConfig(os.log), prog)
	if err != nil {
		return nil, err
	}
	return os, nil
}

// runTrial executes one trial. The run, its Result, Decisions, and Trace
// are the session's own, valid until its next trial.
func (os *objectSession) runTrial(ctx context.Context, t Trial) (*ObjectRun, error) {
	if err := os.in.set(os.in.of(t)); err != nil {
		return nil, err
	}
	for i := range os.out.Decisions {
		os.out.Decisions[i] = value.Decision{V: value.None}
	}
	res, err := os.sess.Run(ctx, t.Seed)
	os.out.Result, os.out.Trace = res, os.log
	return &os.out, err
}

func (os *objectSession) session() exec.Session { return os.sess }
func (os *objectSession) close()                { _ = os.sess.Close() }

// copyTo implements snapshot.
func (r *ObjectRun) copyTo(dst *ObjectRun) *ObjectRun {
	if dst == nil {
		dst = new(ObjectRun)
	}
	dst.Trace = r.Trace.Clone()
	dst.Result = copyResult(dst.Result, r.Result, dst.Trace)
	dst.Decisions = refill(dst.Decisions, r.Decisions)
	return dst
}

// protocolSession is one protocol cell, mirroring objectSession. The program
// snapshots each process's deciding index from the protocol's own
// instrumentation into the session's run, so the run keeps it while the
// protocol instance moves on to the next trial.
type protocolSession struct {
	sess exec.Session
	in   sessionInputs
	out  ProtocolRun   // the latest trial's run; Decided and DecidedIdx are written in place
	mon  check.Monitor // reset per trial
	log  *trace.Log
}

// newProtocolSession builds proto's program closure and a backend session
// over it, like newObjectSession.
func newProtocolSession(proto *core.Protocol, cfg ObjectConfig, hook func(Trial) []value.Value) (*protocolSession, error) {
	base, err := cfg.inputs(hook)
	if err != nil {
		return nil, err
	}
	ps := &protocolSession{
		in: sessionInputs{n: cfg.N, base: base, hook: hook, live: make([]value.Value, cfg.N)},
		out: ProtocolRun{
			Decided:    make([]bool, cfg.N),
			DecidedIdx: make([]int32, cfg.N),
			stageOf:    proto.StageOfIndex,
		},
	}
	if cfg.Traced {
		ps.log = trace.New()
	}
	// The online monitor checks each decision the moment it lands (from
	// concurrently running goroutines on the live backend), so a violation
	// is caught even if the execution never finishes cleanly.
	prog := func(e core.Env) value.Value {
		pid := e.PID()
		out, ok := proto.Run(e, ps.in.live[pid])
		ps.out.Decided[pid] = ok
		ps.out.DecidedIdx[pid] = int32(proto.DecidedIndex(pid))
		if ok {
			ps.mon.Observe(pid, out)
		}
		return out
	}
	ps.sess, err = cfg.backend().NewSession(cfg.execConfig(ps.log), prog)
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// runTrial executes one trial; like objectSession.runTrial, the run is the
// session's own until its next trial.
func (ps *protocolSession) runTrial(ctx context.Context, t Trial) (*ProtocolRun, error) {
	return ps.run(ctx, t.Seed, ps.in.of(t), nil)
}

// rescheduler is a backend session that takes a new adversary between
// trials (the sim backend's).
type rescheduler interface {
	SetScheduler(s sched.Scheduler)
}

// schedule installs s as the adversary of sess's later trials.
func schedule(sess exec.Session, s sched.Scheduler) error {
	rs, ok := sess.(rescheduler)
	if !ok {
		return errors.New("harness: the backend's session cannot take a scheduler per trial")
	}
	rs.SetScheduler(s)
	return nil
}

// run executes one trial with the given seed and inputs and, when s is
// non-nil, s as the adversary for this trial only: the session drops it
// afterwards, so an idle session keeps no caller's scheduler.
func (ps *protocolSession) run(ctx context.Context, seed uint64, inputs []value.Value, s sched.Scheduler) (*ProtocolRun, error) {
	if err := ps.in.set(inputs); err != nil {
		return nil, err
	}
	if s != nil {
		if err := schedule(ps.sess, s); err != nil {
			return nil, err
		}
		defer schedule(ps.sess, nil)
	}
	for i := range ps.out.Decided {
		ps.out.Decided[i] = false
		ps.out.DecidedIdx[i] = -1
	}
	// The monitor accumulates the first observed decision, so it is reset
	// per trial, after the trial's inputs are in place (it checks validity
	// against them).
	ps.mon.Reset(ps.in.live)
	res, err := ps.sess.Run(ctx, seed)
	ps.out.Result, ps.out.Violation, ps.out.Trace = res, ps.mon.Err(), ps.log
	return &ps.out, err
}

func (ps *protocolSession) session() exec.Session { return ps.sess }
func (ps *protocolSession) close()                { _ = ps.sess.Close() }

// copyTo implements snapshot.
func (r *ProtocolRun) copyTo(dst *ProtocolRun) *ProtocolRun {
	if dst == nil {
		dst = new(ProtocolRun)
	}
	dst.Trace = r.Trace.Clone()
	dst.Result = copyResult(dst.Result, r.Result, dst.Trace)
	dst.Decided = refill(dst.Decided, r.Decided)
	dst.DecidedIdx = refill(dst.DecidedIdx, r.DecidedIdx)
	dst.Violation, dst.stageOf = r.Violation, r.stageOf
	return dst
}

// shape is what fixes a session when it is opened, as opposed to the
// per-trial inputs, scheduler, seed and context: two configurations with
// equal shapes (and equal fault lists, compared apart because slices are
// not comparable) can run on the same session.
type shape struct {
	backend      exec.Backend
	traced       bool
	cheapCollect bool
	registers    register.Semantics
	maxSteps     int
	meter        *obs.Meter
}

func (cfg *ObjectConfig) shape() shape {
	return shape{
		backend:      cfg.backend(),
		traced:       cfg.Traced,
		cheapCollect: cfg.CheapCollect,
		registers:    cfg.Registers,
		maxSteps:     cfg.MaxSteps,
		meter:        cfg.Meter,
	}
}

// ProtocolInstance is a built protocol kept for repeated single executions,
// as Consensus.Solve's free list keeps them. It owns the register file, the
// protocol built in it, the file's contents right after the build, the
// shape and fault list of its last execution, and the session that
// execution ran on, if it was kept.
//
// An execution whose shape and faults differ from the last one's (or the
// instance's first) closes the kept session and runs like RunProtocol: on
// the caller's goroutine, on a session it closes at the end. An execution
// that repeats the last one's shape and faults runs on the kept session,
// opening it if there is none: the engine's reset rewinds the image, RNG
// streams and coroutines, and the execution's inputs and scheduler are
// installed in place. So an instance run once, or by a caller that
// alternates shapes, holds no session. The fault list is compared by value,
// so a plan edited in place between executions is recompiled.
//
// The kept session is opened, run and closed only on the instance's
// runner, a goroutine the instance starts with it and keeps (see the file
// comment), so a thread-locked caller is safe and a warm execution starts
// no goroutine; the sessions of the RunProtocol path live within one call
// on the caller's goroutine, as RunProtocol's do. The runner stops on
// Close, and on an execution that panics or calls runtime.Goexit, which
// closes its session before the panic reaches the caller. An idle instance
// keeps no reference to its last execution's scheduler, context or trace.
// An instance is not safe for concurrent use.
type ProtocolInstance struct {
	file  *register.File
	proto *core.Protocol
	image []value.Value

	ran    bool // shape and faults are the last execution's
	shape  shape
	faults []fault.Fault    // the last execution's merged fault list
	sess   *protocolSession // the kept session, or nil

	runner  *runner // the kept session's runner, or nil
	serveFn func()  // in.serve, bound once per runner
	// The execution the runner is running: its config, and its run and
	// error once it returns. Run clears all three as it takes them back.
	cfg ObjectConfig
	run *ProtocolRun
	err error
}

// NewProtocolInstance keeps proto, built in file, for repeated executions,
// taking file's current contents as the image every new session starts
// from.
func NewProtocolInstance(file *register.File, proto *core.Protocol) *ProtocolInstance {
	return &ProtocolInstance{file: file, proto: proto, image: file.Contents()}
}

// File returns the register file the protocol was built in.
func (in *ProtocolInstance) File() *register.File { return in.file }

// Run executes the protocol once under cfg, like RunProtocol, whose
// cfg.File must be the instance's file. An execution on the kept session
// runs on the instance's runner, which Run starts when there is none, while
// the caller waits. A run on the kept session is the session's own, valid
// until the instance's next Run or Close, except its Trace, which is the
// caller's: the session records its next execution into new storage. A
// panic inside a run on the kept session closes the session, stops the
// runner and is raised again on the caller's goroutine with its original
// value; the traceback then starts at Run, without the frames that
// panicked. A call to runtime.Goexit there ends the caller's goroutine too.
func (in *ProtocolInstance) Run(cfg ObjectConfig) (*ProtocolRun, error) {
	sh, faults := cfg.shape(), []fault.Fault(nil)
	if p := cfg.faults(); p != nil {
		faults = p.Faults
	}
	if !in.ran || in.shape != sh || !slices.Equal(in.faults, faults) {
		in.Close()
		in.ran, in.shape, in.faults = true, sh, slices.Clone(faults)
		if err := in.file.Restore(in.image); err != nil {
			return nil, err
		}
		return RunProtocol(in.proto, cfg)
	}
	if in.runner == nil {
		in.runner, in.serveFn = newRunner(), in.serve
	}
	in.cfg = cfg
	pan := in.runner.call(in.serveFn)
	run, err := in.run, in.err
	in.cfg, in.run, in.err = ObjectConfig{}, nil, nil
	if pan != nil {
		in.runner = nil // it has exited, and closed the session
		if pan == errGoexit {
			runtime.Goexit() // the execution called Goexit; so does its caller
		}
		panic(pan)
	}
	if run != nil {
		run.Trace = run.Trace.Take()
	}
	return run, err
}

// serve is the runner's call: it replays in.cfg into in.run and in.err,
// and closes the session if the execution does not return.
func (in *ProtocolInstance) serve() {
	returned := false
	defer func() {
		if !returned {
			in.close()
		}
	}()
	in.run, in.err = in.replay(in.cfg)
	returned = true
}

// replay runs cfg on the kept session, opening it first if there is none.
func (in *ProtocolInstance) replay(cfg ObjectConfig) (*ProtocolRun, error) {
	if in.sess == nil {
		if err := in.file.Restore(in.image); err != nil {
			return nil, err
		}
		sess, err := newProtocolSession(in.proto, cfg, nil)
		if err != nil {
			return nil, err
		}
		in.sess = sess
	}
	run, err := in.sess.run(cfg.Context, cfg.Seed, cfg.Inputs, cfg.Scheduler)
	if errors.Is(err, exec.ErrSessionPoisoned) {
		in.close()
	}
	return run, err
}

// Open reports whether the instance keeps a runner, which holds its kept
// session unless the last run's session was poisoned; Close releases both.
func (in *ProtocolInstance) Open() bool { return in.runner != nil }

// Close closes the kept session, if any, on the instance's runner, and
// stops the runner. The instance stays usable: its next Run of a repeated
// shape starts a runner and opens a session again.
func (in *ProtocolInstance) Close() {
	if r := in.runner; r != nil {
		in.runner = nil
		pan := r.call(in.close)
		r.stop()
		if pan != nil {
			panic(pan)
		}
	}
}

func (in *ProtocolInstance) close() {
	if in.sess != nil {
		in.sess.close()
		in.sess = nil
	}
}
