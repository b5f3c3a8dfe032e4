// Execution sessions: the one path every object and protocol execution in
// this package takes.
//
// A sweep runs many trials of one cell — one (object, n, adversary, fault
// plan) configuration — varying only the seed and possibly the inputs. The
// session types here construct that cell once — the object, its program
// closure, and an exec.Session over it — and replay it per trial through
// exec.Session.Run(ctx, seed), which on sim rewinds the engine in place:
// zero allocations per trial below the harness. RunObject and RunProtocol
// are one trial of a fresh session; the sweeps pool sessions per worker, and
// a ProtocolInstance keeps one open across single executions of one shape.
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
// that has called runtime.LockOSThread never touches them.
//
// The pool hands each worker a session for the duration of one trial and
// its fold. Sessions return to the pool only on normal return: a trial that
// panics never reaches the put, so a session whose engine may be mid-unwind
// (poisoned) is closed as the panic leaves the trial rather than recycled,
// and a session that reports exec.ErrSessionPoisoned is closed instead of
// put back.
// The robust trial engine's abandoned attempts (deadline overruns that never
// came back) keep their session checked out forever — leaking one session
// is the price of never reusing state a runaway goroutine might still be
// touching.
//
// Determinism: a trial's outcome is a pure function of (cell, seed, inputs).
// A sim session's Run restores registers, scheduler state, and RNG streams
// from the seed alone before the trial, so which pooled session runs a trial
// — and how many trials it ran before — cannot affect the result. Sweep
// aggregates therefore stay bit-identical at any worker count, pooled or
// not.
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

// cell is one pooled session of a sweep: *objectSession or *protocolSession.
type cell[R any] interface {
	// runTrial executes one trial. The run it returns is the session's own,
	// rewritten by the session's next trial.
	runTrial(ctx context.Context, t Trial) (R, error)
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

// sessionPool hands out sessions to workers, one per in-flight trial. make
// is called when the free list is empty, so a sweep creates at most
// workers-many sessions (plus replacements for discarded ones). The pool
// also keeps the buffers that parked runs are copied into (see park).
// Both free lists are plain slices, not sync.Pools, for the reason the
// root package's Solve list is: a sync.Pool is cleared at GC, so a sweep's
// allocation count would vary from run to run.
type sessionPool[R snapshot[R], S cell[R]] struct {
	make func() (S, error)

	mu     sync.Mutex
	free   []S
	snaps  []R // snapshot buffers no parked run holds
	closed bool
}

func newSessionPool[R snapshot[R], S cell[R]](mk func() (S, error)) *sessionPool[R, S] {
	return &sessionPool[R, S]{make: mk}
}

func (p *sessionPool[R, S]) get() (S, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	return p.make()
}

// put returns a session to the free list. After closeAll (a late put from an
// attempt that outlived the sweep) the session is closed instead — the pool
// never resurrects.
func (p *sessionPool[R, S]) put(s S) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.close()
		return
	}
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// closeAll closes every free session and marks the pool closed. Sessions
// still checked out by abandoned attempts are not touched — their goroutines
// may be live inside Run — and are closed (or leaked, if the attempt never
// returns) via the late-put path. The sweep's caller runs closeAll, but the
// workers created the sessions, so the closing happens on a harness
// goroutine.
func (p *sessionPool[R, S]) closeAll() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.closed = true
	p.mu.Unlock()
	onHarnessGoroutine(func() {
		for _, s := range free {
			s.close()
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

// foldTrial runs trial t on a pooled session and hands the outcome to
// fold while the session is still checked out, so the fold can consume the
// session's own run in place (or park a copy of it); the session goes back
// to the pool only after the fold. A session whose runTrial does not return
// (a panic, or Goexit) is closed on the way out, which stops its parked
// processes, and the panic goes on to the dispatcher's recover; a session
// that reports itself poisoned is closed before the fold, and one whose
// fold does not return (a callback's Goexit) after it. None is reused.
// foldTrial runs on a harness worker or attempt goroutine, so the close
// keeps the thread-lock rule of the file comment.
func (p *sessionPool[R, S]) foldTrial(ctx context.Context, t Trial, fold func(outcome[R])) {
	sess, err := p.get()
	if err != nil {
		fold(outcome[R]{trial: t, err: err})
		return
	}
	held := true // checked out, neither closed nor put back
	defer func() {
		if held {
			sess.close()
		}
	}()
	run, err := sess.runTrial(ctx, t)
	if errors.Is(err, exec.ErrSessionPoisoned) {
		held = false
		sess.close()
	}
	fold(outcome[R]{trial: t, result: run, err: err})
	if held {
		held = false
		p.put(sess)
	}
}

// parkedTrial runs trial t like foldTrial but returns a parked copy of the
// run instead of folding it: the robust policy's attempts run on goroutines
// of their own and may be abandoned, so their sessions go back to the pool
// before the fold sees the run.
func (p *sessionPool[R, S]) parkedTrial(ctx context.Context, t Trial) (run R, err error) {
	p.foldTrial(ctx, t, func(oc outcome[R]) { run, err = p.park(oc.result), oc.err })
	return run, err
}

// park copies a session's run into a snapshot buffer from the free list,
// allocating one only when the list is empty, so the copy stays valid after
// the session runs its next trial. A zero run parks as itself.
func (p *sessionPool[R, S]) park(run R) R {
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
func (p *sessionPool[R, S]) unpark(snap R) {
	var zero R
	if snap == zero {
		return
	}
	p.mu.Lock()
	p.snaps = append(p.snaps, snap)
	p.mu.Unlock()
}

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

// set resolves src (one value per process, or one for all) into live.
func (si *sessionInputs) set(src []value.Value) error {
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
	base, err := cfg.inputs()
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

func (os *objectSession) close() { _ = os.sess.Close() }

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
	base, err := cfg.inputs()
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

// run executes one trial with the given seed and inputs and, when s is
// non-nil, s as the adversary for this trial only: the session drops it
// afterwards, so an idle session keeps no caller's scheduler.
func (ps *protocolSession) run(ctx context.Context, seed uint64, inputs []value.Value, s sched.Scheduler) (*ProtocolRun, error) {
	if err := ps.in.set(inputs); err != nil {
		return nil, err
	}
	if s != nil {
		rs, ok := ps.sess.(rescheduler)
		if !ok {
			return nil, errors.New("harness: the backend's session cannot take a scheduler per trial")
		}
		rs.SetScheduler(s)
		defer rs.SetScheduler(nil)
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

func (ps *protocolSession) close() { _ = ps.sess.Close() }

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
// The kept session is opened, run and closed only on goroutines the
// instance starts (see the file comment), so a thread-locked caller is
// safe; the sessions of the RunProtocol path live within one call on the
// caller's goroutine, as RunProtocol's do. An execution that panics closes
// its session before the panic reaches the caller. An idle instance keeps
// no reference to its last execution's scheduler, context or trace. An
// instance is not safe for concurrent use.
type ProtocolInstance struct {
	file  *register.File
	proto *core.Protocol
	image []value.Value

	ran    bool // shape and faults are the last execution's
	shape  shape
	faults []fault.Fault    // the last execution's merged fault list
	sess   *protocolSession // the kept session, or nil
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
// cfg.File must be the instance's file. A run on the kept session is the
// session's own, valid until the instance's next Run or Close, except its
// Trace, which is the caller's: the session records its next execution into
// new storage. A panic inside a run on the kept session closes the session and
// is raised again on the caller's goroutine with its original value; the
// traceback then starts at Run, without the frames that panicked.
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
	// One variable for everything the closure shares, so the hop costs one
	// allocation for it rather than one per captured variable.
	c := struct {
		cfg ObjectConfig
		run *ProtocolRun
		err error
		pan any
		ok  bool // the execution returned
	}{cfg: cfg}
	onHarnessGoroutine(func() {
		defer func() {
			if !c.ok {
				c.pan = recover()
				in.close()
			}
		}()
		c.run, c.err = in.replay(c.cfg)
		c.ok = true
	})
	if !c.ok {
		if c.pan == nil {
			runtime.Goexit() // the execution called Goexit; so does its caller
		}
		panic(c.pan)
	}
	if c.run != nil {
		c.run.Trace = c.run.Trace.Take()
	}
	return c.run, c.err
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

// Open reports whether the instance keeps a session, which Close releases.
func (in *ProtocolInstance) Open() bool { return in.sess != nil }

// Close closes the kept session, if any, on a goroutine the instance
// starts. The instance stays usable: its next Run opens a new session.
func (in *ProtocolInstance) Close() {
	if in.sess != nil {
		onHarnessGoroutine(in.close)
	}
}

func (in *ProtocolInstance) close() {
	if in.sess != nil {
		in.sess.close()
		in.sess = nil
	}
}
