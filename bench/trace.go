package main

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// The traced run measures each layer from outside: decorators in this file
// wrap every call the workloads make into a layer and record how long it
// took. Op-level boundaries (root, build, session setup and run, façade and
// client hooks) record spans; per-step boundaries (Scheduler.Next and the
// Env calls that end an object's local computation) only add to counters
// owned by one session at a time, so memory stays bounded.

var epoch = time.Now()

// now reads the monotonic clock once (time.Since skips the wall-clock read
// time.Now also makes, halving the cost of every boundary).
func now() int64 { return int64(time.Since(epoch)) }

// calibrateClock returns the cost of one now() call in nanoseconds: the
// median over several batches. The cost drifts with the host, so the traced
// run calibrates before every round.
func calibrateClock() float64 {
	const batch = 20000
	costs := make([]float64, 7)
	for i := range costs {
		t0 := now()
		for j := 0; j < batch; j++ {
			now()
		}
		costs[i] = float64(now()-t0) / batch
	}
	return median(costs)
}

// layer is one module the time of an op is attributed to.
type layer int

const (
	lBuild   layer = iota // core.NewProtocol and the object constructors
	lSetup                // session construction and teardown (engine)
	lEngine               // internal/sim and internal/register, per step
	lSched                // internal/sched: Scheduler.Next
	lObject               // object logic between shared-memory operations
	lHarness              // internal/harness
	lFacade               // the entry point the workload calls
	lClient               // the benchmark's own input and fold code
	nLayers
)

// kind is one kind of measured interval. Every interval is charged to the
// layer of its kind and subtracted from the self time of its parent.
type kind int

const (
	kRoot   kind = iota // one measured round (or one op's worth of rounds)
	kSolve              // a rebuilt Solve call
	kHCall              // harness.RunProtocol
	kBuild              // core.NewProtocol with the default builders
	kSetup              // exec.Backend.NewSession or Session.Close
	kRun                // exec.Session.Run or RunBatch
	kNext               // Scheduler.Next
	kObj                // object computation between two Env operations
	kCB                 // harness callbacks run inside RunBatch
	kMerge              // façade code on the fold goroutine
	kCell               // façade code on the caller between sweeps
	kInputs             // client per-trial inputs hook
	kFold               // client fold of one outcome
	nKinds
)

var kindNames = [nKinds]string{"root", "solve", "harness", "build", "session.setup", "session.run", "next", "object", "callback", "facade.merge", "facade.cell", "client.inputs", "client.fold"}

var kindLayer = [nKinds]layer{
	kRoot: lHarness, kSolve: lFacade, kHCall: lHarness, kBuild: lBuild,
	kSetup: lSetup, kRun: lEngine, kNext: lSched, kObj: lObject, kCB: lHarness,
	kMerge: lFacade, kCell: lFacade, kInputs: lClient, kFold: lClient,
}

// span is one op-level interval, written by -trace-out.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tally accumulates intervals by kind: total raw duration and count, and the
// same for the intervals each kind encloses.
type tally struct {
	raw, n           [nKinds]int64
	childRaw, childN [nKinds]int64
	steps            int64 // executed operations (Result.TotalWork)
	capacity         int64 // root wall time × the processors it occupies
}

func (t *tally) add(k, parent kind, d int64) {
	t.raw[k] += d
	t.n[k]++
	t.childRaw[parent] += d
	t.childN[parent]++
}

func (t *tally) merge(o *tally) {
	for k := range t.raw {
		t.raw[k] += o.raw[k]
		t.n[k] += o.n[k]
		t.childRaw[k] += o.childRaw[k]
		t.childN[k] += o.childN[k]
	}
	t.steps += o.steps
	t.capacity += o.capacity
}

// selfTimes partitions the capacity into layers. Each interval's two clock
// reads cost readNs each; one read's worth is charged to the interval's own
// layer and one to the layer enclosing it. rootLayer names the layer of the
// root's self time: the client loop for serial roots, the harness (its
// dispatcher, fold, idle processors and everything unmeasured) for parallel
// ones.
func (t *tally) selfTimes(readNs float64, rootLayer layer) [nLayers]float64 {
	var self [nLayers]float64
	for k := kind(0); k < nKinds; k++ {
		l := kindLayer[k]
		raw := float64(t.raw[k])
		if k == kRoot {
			l, raw = rootLayer, float64(t.capacity)
		}
		self[l] += raw - float64(t.childRaw[k]) - readNs*float64(t.n[k]+t.childN[k])
	}
	return self
}

// tracer owns the traced run's spans and totals. Decorators it hands out
// record into it; counters that per-step code touches live in the decorator
// (one session uses it at a time) and are flushed under the lock.
type tracer struct {
	mu      sync.Mutex
	tot     tally
	spans   []span
	nextID  int64
	rootID  int64
	pending []func(*tally) // per-root decorators to flush at the root's end
	keep    bool           // record spans for -trace-out
}

func newTracer(keepSpans bool) *tracer { return &tracer{keep: keepSpans} }

// reserve allocates a span id for an interval whose end is not known yet, so
// its children can name it as their parent.
func (tr *tracer) reserve() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextID++
	return tr.nextID
}

// finish records an interval under a reserved id.
func (tr *tracer) finish(id int64, k, parent kind, parentID, start, end int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.tot.add(k, parent, end-start)
	if tr.keep {
		tr.spans = append(tr.spans, span{ID: id, Parent: parentID, Name: kindNames[k], Start: start, End: end})
	}
}

// record adds one interval that encloses no other.
func (tr *tracer) record(k, parent kind, parentID, start, end int64) {
	tr.finish(tr.reserve(), k, parent, parentID, start, end)
}

// flush merges a decorator's private counters.
func (tr *tracer) flush(t *tally) {
	tr.mu.Lock()
	tr.tot.merge(t)
	tr.mu.Unlock()
}

// later registers a decorator whose counters are flushed when the root ends.
func (tr *tracer) later(f func(*tally)) {
	tr.mu.Lock()
	tr.pending = append(tr.pending, f)
	tr.mu.Unlock()
}

// rootClock is an open root: its start and the processors it occupies.
type rootClock struct {
	start int64
	procs int64
}

// beginRoot opens a root that keeps procs processors busy: 1 for a caller
// loop, the worker count for a sweep.
func (tr *tracer) beginRoot(procs int) rootClock {
	tr.rootID = tr.reserve()
	return rootClock{start: now(), procs: int64(procs)}
}

// endRoot closes the root. Its capacity is processor time, wall × procs:
// spans are wall time on a goroutine, which includes time the goroutine
// waited for a processor (the fold goroutine and GC workers preempt sweep
// workers), so only processor time bounds their sum.
func (tr *tracer) endRoot(c rootClock) {
	end := now()
	tr.mu.Lock()
	pending := tr.pending
	tr.pending = nil
	tr.mu.Unlock()
	var t tally
	for _, f := range pending {
		f(&t)
	}
	t.capacity = (end - c.start) * c.procs
	tr.flush(&t)
	tr.mu.Lock()
	if tr.keep {
		tr.spans = append(tr.spans, span{ID: tr.rootID, Name: kindNames[kRoot], Start: c.start, End: end})
	}
	tr.mu.Unlock()
}

// writeSpans writes every recorded span as one JSON object per line.
func (tr *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// timedSched measures Scheduler.Next. The engine builds views at the
// decorated scheduler's MinPower, which the embedding forwards.
type timedSched struct {
	sched.Scheduler
	ns, n int64
}

func (s *timedSched) Next(v *sched.View) int {
	t := now()
	pid := s.Scheduler.Next(v)
	s.ns += now() - t
	s.n++
	return pid
}

func (s *timedSched) flushInto(t *tally) {
	t.raw[kNext] += s.ns
	t.n[kNext] += s.n
	t.childRaw[kRun] += s.ns
	t.childN[kRun] += s.n
	s.ns, s.n = 0, 0
}

// objAcc measures the self time of the objects of one built protocol: the
// local computation between a process's shared-memory operations. Objects
// of one protocol run inside one session, so plain fields suffice.
type objAcc struct {
	envs  []timedEnv
	objs  []timedObject // wrappers, allocated 64 at a time
	ns, n int64
}

func (a *objAcc) flushInto(t *tally) {
	t.raw[kObj] += a.ns
	t.n[kObj] += a.n
	t.childRaw[kRun] += a.ns
	t.childN[kRun] += a.n
	a.ns, a.n = 0, 0
}

// wrap returns a builder whose objects time themselves through acc.
func (a *objAcc) wrap(b core.Builder) core.Builder {
	return func(f *register.File, index int) core.Object {
		if len(a.objs) == cap(a.objs) {
			a.objs = make([]timedObject, 0, 64)
		}
		a.objs = append(a.objs, timedObject{Object: b(f, index), acc: a})
		return &a.objs[len(a.objs)-1]
	}
}

// timedObject hands its inner object a timing Env.
type timedObject struct {
	core.Object
	acc *objAcc
}

func (o *timedObject) Invoke(e core.Env, v value.Value) value.Decision {
	te := &o.acc.envs[e.PID()]
	te.Env, te.acc, te.mark = e, o.acc, now()
	d := o.Object.Invoke(te, v)
	te.pause()
	return d
}

// timedEnv closes the current object segment at every operation that hands
// control to the engine, and opens the next when the operation returns.
type timedEnv struct {
	core.Env
	acc  *objAcc
	mark int64
}

func (e *timedEnv) pause() {
	e.acc.ns += now() - e.mark
	e.acc.n++
}

func (e *timedEnv) Read(r register.Reg) value.Value {
	e.pause()
	v := e.Env.Read(r)
	e.mark = now()
	return v
}

func (e *timedEnv) Write(r register.Reg, v value.Value) {
	e.pause()
	e.Env.Write(r, v)
	e.mark = now()
}

func (e *timedEnv) ProbWrite(r register.Reg, v value.Value, num, den uint64) bool {
	e.pause()
	ok := e.Env.ProbWrite(r, v, num, den)
	e.mark = now()
	return ok
}

func (e *timedEnv) Collect(arr register.Array) []value.Value {
	e.pause()
	vs := e.Env.Collect(arr)
	e.mark = now()
	return vs
}

// timedBackend measures the engine. Run, which the harness calls for one
// execution, is performed as the session it is defined to equal — construct,
// run one trial, tear down — so set-up and execution time separately; the
// digest check proves the executions are unchanged. Capabilities are
// forwarded, so sweeps keep their lane path.
type timedBackend struct {
	exec.Backend
	tr       *tracer
	parent   kind  // the kind of interval that calls into the backend
	parentID int64 // its span id
}

func (b timedBackend) Run(cfg exec.Config, programs ...exec.Program) (*exec.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t0 := now()
	s, err := b.Backend.NewSession(cfg, programs...)
	t1 := now()
	b.tr.record(kSetup, b.parent, b.parentID, t0, t1)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(cfg.Context, cfg.Seed)
	t2 := now()
	b.tr.record(kRun, b.parent, b.parentID, t1, t2)
	cerr := s.Close()
	b.tr.record(kSetup, b.parent, b.parentID, t2, now())
	if res != nil {
		b.tr.flush(&tally{steps: int64(res.TotalWork)})
	}
	if err == nil {
		err = cerr
	}
	return res, err
}

func (b timedBackend) NewSession(cfg exec.Config, programs ...exec.Program) (exec.Session, error) {
	t0 := now()
	s, err := b.Backend.NewSession(cfg, programs...)
	b.tr.record(kSetup, b.parent, b.parentID, t0, now())
	if err != nil {
		return nil, err
	}
	return &timedSession{inner: s, b: b}, nil
}

// timedSession measures one pooled session. The harness hands a session to
// one worker at a time, so the per-trial counters need no lock; they are
// flushed when the pool closes the session.
type timedSession struct {
	inner exec.Session
	b     timedBackend
	cb    tally
}

func (s *timedSession) Run(ctx context.Context, seed uint64) (*exec.Result, error) {
	t0 := now()
	res, err := s.inner.Run(ctx, seed)
	s.b.tr.record(kRun, s.b.parent, s.b.parentID, t0, now())
	if res != nil {
		s.cb.steps += int64(res.TotalWork)
	}
	return res, err
}

func (s *timedSession) RunBatch(ctx context.Context, seeds []uint64, begin func(k int) error, emit func(k int, res *exec.Result, err error) bool) error {
	timedBegin := func(k int) error {
		t := now()
		err := begin(k)
		s.cb.add(kCB, kRun, now()-t)
		return err
	}
	timedEmit := func(k int, res *exec.Result, err error) bool {
		if res != nil {
			s.cb.steps += int64(res.TotalWork)
		}
		t := now()
		ok := emit(k, res, err)
		s.cb.add(kCB, kRun, now()-t)
		return ok
	}
	if begin == nil {
		timedBegin = nil
	}
	t0 := now()
	var err error
	if bs, ok := s.inner.(exec.BatchSession); ok {
		err = bs.RunBatch(ctx, seeds, timedBegin, timedEmit)
	} else {
		err = exec.RunSeeds(s.inner, ctx, seeds, timedBegin, timedEmit)
	}
	s.b.tr.record(kRun, s.b.parent, s.b.parentID, t0, now())
	return err
}

func (s *timedSession) Close() error {
	t0 := now()
	err := s.inner.Close()
	s.b.tr.record(kSetup, s.b.parent, s.b.parentID, t0, now())
	s.b.tr.flush(&s.cb)
	s.cb = tally{}
	return err
}
