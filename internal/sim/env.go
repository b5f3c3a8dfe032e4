package sim

import (
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/trace"
	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// env is a process's handle on the shared-memory world: the simulator's
// core.Env. Every method that touches shared memory returns only once the
// adversary has scheduled the operation; coin methods are local, free, and
// invisible to weak adversaries.
//
// An env belongs to exactly one process coroutine and must not be shared.
type env struct {
	pid   int
	n     int
	cheap bool
	coins *xrand.Source
	log   *trace.Log
	rt    *engine
	// p is the engine-side state of this process: an Env call writes its
	// request to p.pending and reads the response from p.resp.
	p *proc
	// yield suspends the coroutine with a handoff for the loop; it returns
	// false when the engine is tearing the process down.
	yield func(int) bool
	// collectBuf backs non-cheap Collect results; see Collect's contract.
	collectBuf []value.Value
}

// PID returns this process's id in [0, N).
func (e *env) PID() int { return e.pid }

// N returns the number of processes.
func (e *env) N() int { return e.n }

// CheapCollect reports whether the cheap-collect cost model is active.
func (e *env) CheapCollect() bool { return e.cheap }

// Read performs an atomic read of r. Cost: 1 operation.
func (e *env) Read(r register.Reg) value.Value {
	e.p.pending = request{kind: sched.OpRead, reg: r}
	return e.do().val
}

// Write performs an atomic write of v to r. Cost: 1 operation.
func (e *env) Write(r register.Reg, v value.Value) {
	e.p.pending = request{kind: sched.OpWrite, reg: r, val: v}
	e.do()
}

// ProbWrite attempts to write v to r; the write takes effect with
// probability min(1, num/den), decided by a coin the adversary can neither
// observe in advance nor veto (§2.1, the probabilistic-write model of
// Abrahamson as used by Chor–Israeli–Li and Cheung). Cost: 1 operation
// whether or not the write takes effect.
//
// The return value reports success. Whether a protocol is allowed to *use*
// it is a modeling choice (footnote 2 of the paper); the paper's default
// protocols ignore it, and the detection ablation measures the difference.
func (e *env) ProbWrite(r register.Reg, v value.Value, num, den uint64) bool {
	e.p.pending = request{kind: sched.OpProbWrite, reg: r, val: v, num: num, den: den}
	return e.do().ok
}

// Collect atomically reads a register array. Under the cheap-collect model
// it costs 1 operation; otherwise it is performed as arr.Len individual
// reads (cost arr.Len, with scheduling points between reads, i.e. *not*
// atomic — exactly the distinction §6.2 draws).
//
// Copy-on-escape: the returned slice is backed by a buffer the runtime
// reuses, and is valid only until this process's next Env operation.
// Protocols that consume the collect immediately (the normal shape — every
// construction in this repo iterates over it right away) need no copy;
// anything that retains the slice across a subsequent Read/Write/ProbWrite/
// Collect must copy it first.
func (e *env) Collect(arr register.Array) []value.Value {
	if e.cheap {
		e.p.pending = request{kind: sched.OpCollect, arr: arr}
		return e.do().vals
	}
	e.collectBuf = e.collectBuf[:0]
	for i := 0; i < arr.Len; i++ {
		e.collectBuf = append(e.collectBuf, e.Read(arr.At(i)))
	}
	return e.collectBuf
}

// CoinUint64 flips 64 local coin bits. Cost: 0.
func (e *env) CoinUint64() uint64 {
	v := e.coins.Uint64()
	if e.log != nil {
		e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Coin, Val: value.Value(int64(v >> 1))})
	}
	return v
}

// CoinBool flips one fair local coin. Cost: 0.
func (e *env) CoinBool() bool {
	v := e.coins.Bool()
	if e.log != nil {
		bit := value.Value(0)
		if v {
			bit = 1
		}
		e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Coin, Val: bit})
	}
	return v
}

// CoinIntn returns a uniform local random integer in [0, n). Cost: 0.
func (e *env) CoinIntn(n int) int {
	v := e.coins.Intn(n)
	if e.log != nil {
		e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Coin, Val: value.Value(v)})
	}
	return v
}

// MarkInvoke annotates the trace with the start of an operation on a
// deciding object. Cost: 0.
func (e *env) MarkInvoke(label string, v value.Value) {
	if e.log != nil {
		e.log.Append(trace.Event{Step: -1, PID: e.pid, Kind: trace.Invoke, Label: label, Val: v})
	}
}

// MarkReturn annotates the trace with the result of an operation on a
// deciding object. Cost: 0.
func (e *env) MarkReturn(label string, d value.Decision) {
	if e.log != nil {
		e.log.Append(trace.Event{
			Step: -1, PID: e.pid, Kind: trace.Return,
			Label: label, Val: d.V, Decided: d.Decided,
		})
	}
}

// do hands the request in the process's pending slot to the engine and
// returns the engine's response, in the process's response slot. While a
// trial runs, the process takes the step loop's next iteration itself
// (engine.turn); when the adversary picks this same process, the response
// is ready on return and no coroutine switch happens. Otherwise the
// coroutine suspends with its handoff until the loop resumes it. A false
// yield means the runtime is unwinding this process for good
// (engine.Close); an abort response means engine.reset is unwinding just
// the current trial, recovered at the trial boundary so the coroutine can
// park and serve the next one.
func (e *env) do() *response {
	h := e.rt.turn(e.pid)
	if h == e.pid {
		return &e.p.resp
	}
	if !e.yield(h) {
		panic(errKilled)
	}
	if e.p.resp.abort {
		panic(errTrialAbort)
	}
	return &e.p.resp
}
