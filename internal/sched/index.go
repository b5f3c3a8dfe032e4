package sched

import "math/bits"

// opKinds is the number of operation kinds the view indexes: OpRead through
// OpCollect, stored at Kind-1.
const opKinds = int(OpCollect)

// pidSet is an ascending set of pids, one bit each, with its size.
type pidSet struct {
	words []uint64
	n     int
}

func (s *pidSet) add(pid int) {
	s.words[pid>>6] |= 1 << (pid & 63)
	s.n++
}

func (s *pidSet) remove(pid int) {
	s.words[pid>>6] &^= 1 << (pid & 63)
	s.n--
}

// next returns the lowest pid at or above from in the set, or -1.
func (s *pidSet) next(from int) int {
	from = max(from, 0)
	i := from >> 6
	if i >= len(s.words) {
		return -1
	}
	w := s.words[i] & (^uint64(0) << (from & 63))
	for w == 0 {
		i++
		if i == len(s.words) {
			return -1
		}
		w = s.words[i]
	}
	return i<<6 | bits.TrailingZeros64(w)
}

// SetPending re-indexes pid under kind k while valid, makes pid's entry of
// Pending valid (or not) with that kind, and returns the entry for the
// caller to fill in its other fields in place. It is the one writer of
// Pending: the runtime calls it once per step, for the process that moved
// (on that process's own stack when it has just issued its request), and
// once per process when it clears the view between executions, so the
// index costs O(1) per step. The entry is written where it lies, so a step
// copies no Op. A pid is indexed under k while valid; Oblivious views carry
// no kinds (k is 0), so their index stays empty. The first SetPending that
// indexes a pid allocates the index, sized by len(Pending); later
// executions reuse it.
func (v *View) SetPending(pid int, valid bool, k OpKind) *Op {
	op := &v.Pending[pid]
	if op.Valid != valid || op.Kind != k {
		v.reindex(pid, op, valid, k)
	}
	return op
}

// reindex moves pid from its entry's old kind to k and writes the entry's
// Valid and Kind.
func (v *View) reindex(pid int, op *Op, valid bool, k OpKind) {
	if op.Valid && op.Kind != 0 {
		v.byKind[op.Kind-1].remove(pid)
	}
	op.Valid, op.Kind = valid, k
	if !valid || k == 0 {
		return
	}
	if v.byKind[0].words == nil {
		w := (len(v.Pending) + 63) >> 6
		words := make([]uint64, opKinds*w)
		for i := range v.byKind {
			v.byKind[i].words = words[i*w : (i+1)*w : (i+1)*w]
		}
	}
	v.byKind[k-1].add(pid)
}

// CountPending returns how many processes have a pending operation of kind
// k (one of OpRead, OpWrite, OpProbWrite and OpCollect) in the view; 0 for
// every kind in an Oblivious view.
func (v *View) CountPending(k OpKind) int { return v.byKind[k-1].n }

// NextPending returns the lowest pid at or above from whose pending
// operation has kind k in the view, or -1. It walks the pids of one kind
// in ascending order, as a scan of Runnable would meet them:
//
//	for pid := v.NextPending(k, 0); pid >= 0; pid = v.NextPending(k, pid+1)
//
// Each call costs O(1) plus one step per 64 pids it skips.
func (v *View) NextPending(k OpKind, from int) int { return v.byKind[k-1].next(from) }
