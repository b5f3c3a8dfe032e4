// Package fallback provides the bounded-space consensus object K used to
// truncate the paper's unbounded construction (§4.1.2).
//
// The paper invokes "any bounded-space construction" for K. We implement the
// canonical bounded-space consensus for the probabilistic-write model: a
// Chor–Israeli–Li-style round race. It uses n single-writer registers
// (bounded space in the register-counting sense standard in this
// literature; register *values* grow with the round number) and terminates
// with probability 1 against any location-oblivious adversary with
// polynomial expected work — entered with probability ≤ (1-δ)^k, its cost
// vanishes from the protocol's expectation (Theorem 5).
package fallback

import (
	"fmt"
	"strconv"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// CIL is the round-race consensus object. Each process maintains a (round,
// preference) pair, published in its own register. A process repeatedly
// collects all registers; if someone is strictly ahead it adopts the
// leader's pair; if no *conflicting* preference is within one round of its
// own it decides; otherwise it is a contested front-runner and attempts —
// by probabilistic write, so the adversary cannot veto the lucky — to
// advance one round.
//
// Decisions additionally require round ≥ 2. This guards against processes
// that arrive *after* the decider's collect: an arrival always enters at
// round 1, so a decider at round ≥ 2 is strictly ahead of it and the
// arrival's first collect adopts the decided value. For conflicters already
// in the race the ordering argument applies: a decision of v at round r
// happens only after the decider's register shows (r, v), so a conflicting
// process trying to advance to round r-1 or beyond must first complete a
// collect that either predates the decider's reads (contradicting the
// absence of near conflicts the decider observed) or sees the decider's
// register and adopts v. An uncontested front-runner at round 1 advances
// deterministically (a probabilistic write that always succeeds is a legal
// special case), so solo executions decide after one extra collect.
//
// Liveness comes from preference merging: tied conflicting front-runners
// advance by independent coin flips, and whenever exactly one lands, the
// others adopt the winner's preference at their next collect. Unanimous
// preferences decide after at most one deterministic advance.
type CIL struct {
	regs  register.Array // regs.At(pid) holds PackPair(round, pref)
	n     int
	label string

	// AdvanceNum/AdvanceDen is the probabilistic-write probability for a
	// contested front-runner's advance attempt; default 1/(2n).
	AdvanceNum, AdvanceDen uint64
}

var _ core.Object = (*CIL)(nil)

// New allocates the race's n single-writer registers.
func New(file *register.File, n, index int) *CIL {
	if n <= 0 {
		panic(fmt.Sprintf("fallback: n=%d must be positive", n))
	}
	// Not fmt.Sprintf: its printer pool makes the allocation count of a
	// build vary under the race detector, which drops pooled items at random.
	label := string(strconv.AppendInt([]byte{'K'}, int64(index), 10))
	return &CIL{
		regs:       file.Alloc(n, label+".race"),
		n:          n,
		label:      label,
		AdvanceNum: 1,
		AdvanceDen: 2 * uint64(n),
	}
}

// Invoke implements core.Object. It always returns a decision (decision bit
// 1): CIL is a full consensus object.
func (c *CIL) Invoke(e core.Env, v value.Value) value.Decision {
	if v.IsNone() || v < 0 || v > value.MaxPairValue {
		panic(fmt.Sprintf("fallback: input %s out of encodable range", v))
	}
	if c.AdvanceNum >= c.AdvanceDen && c.n > 1 {
		// Probability-1 advances are deterministic: tied front-runners then
		// climb in lockstep forever, and no deterministic protocol can
		// break that symmetry (FLP). The coin is the termination argument.
		panic(fmt.Sprintf("fallback: advance probability %d/%d must be < 1", c.AdvanceNum, c.AdvanceDen))
	}
	pid := e.PID()
	mine := c.regs.At(pid)
	round, pref := 1, v
	e.Write(mine, value.PackPair(round, pref))
	for {
		// Collect every register (own included: a successful advance probe
		// is learned here, so no write-success detection is needed).
		// Registers still at ⊥ count as round 0 and cannot conflict.
		maxRound, maxPref := 0, value.None
		ownRound, ownPref := 0, value.None
		conflictNear := false
		for q := 0; q < c.n; q++ {
			raw := e.Read(c.regs.At(q))
			if raw.IsNone() {
				continue
			}
			qr, qp := value.UnpackPair(raw)
			if qr > maxRound {
				maxRound, maxPref = qr, qp
			}
			if q == pid {
				ownRound, ownPref = qr, qp
			} else if qp != pref && qr >= round-1 {
				conflictNear = true
			}
		}
		switch {
		case maxRound > round:
			// Catch up to the maximum round. If our own register is at the
			// maximum (an earlier probe landed), keep OUR pair — even when
			// another register shares the round with a different
			// preference. Never overwrite a round with a different
			// preference: a same-round retraction publishes a transient
			// pair that a concurrently collecting process may adopt and
			// later resurface after the original has vanished, defeating
			// the deciders' conflict checks. With this rule every
			// register's round strictly increases and a round's preference
			// is immutable per register, so any read that happens after a
			// write returns at least that write's round — the property all
			// the stale-collect safety arguments lean on. (Same-round
			// conflicts stay contested and are settled by further probes;
			// skipping the self-write also avoids the redundant op that
			// would let followers match the leader's pace and livelock
			// lockstep schedules.)
			if ownRound == maxRound {
				round, pref = ownRound, ownPref
			} else {
				round, pref = maxRound, maxPref
				e.Write(mine, value.PackPair(round, pref))
			}
		case !conflictNear && round >= 2:
			// Every conflicting preference is at least two rounds behind
			// (or none exists), and we are past the arrival round: safe to
			// decide.
			return value.Decide(pref)
		case !conflictNear:
			// Uncontested front-runner still at the arrival round:
			// deterministic advance to gain the guard distance over
			// processes that have not announced themselves yet.
			round = 2
			e.Write(mine, value.PackPair(round, pref))
		default:
			// Contested front-runner: probabilistic advance.
			e.ProbWrite(mine, value.PackPair(round+1, pref), c.AdvanceNum, c.AdvanceDen)
		}
	}
}

// Registers returns the number of registers the object uses.
func (c *CIL) Registers() int { return c.regs.Len }

// Label implements core.Object.
func (c *CIL) Label() string { return c.label }
