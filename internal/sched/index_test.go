package sched

import (
	"fmt"
	"testing"

	"github.com/modular-consensus/modcon/internal/xrand"
)

// TestViewIndexWordBoundaries drives SetPending (through SetOp) with random ops at process
// counts on either side of a 64-pid word and checks, after every write,
// each kind's count and NextPending from every start against a scan of
// Pending.
func TestViewIndexWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 256} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			v := &View{N: n, Pending: make([]Op, n)}
			for k := OpRead; k <= OpCollect; k++ {
				if c, next := v.CountPending(k), v.NextPending(k, 0); c != 0 || next != -1 {
					t.Fatalf("empty view: %v count %d, first %d", k, c, next)
				}
			}
			// The pids at the word edges come first, then random ones.
			pids := []int{0, n - 1, 62, 63, 64, 65, 127, 128}
			src := xrand.New(uint64(n))
			for i := 0; i < 40*n; i++ {
				pid := src.Intn(n)
				if i < len(pids) {
					pid = pids[i] % n
				}
				op := Op{}
				if kind := OpKind(src.Intn(opKinds + 1)); kind != 0 {
					op = Op{Valid: true, Kind: kind, Reg: -1}
				}
				v.SetOp(pid, op)
				checkIndex(t, v, fmt.Sprintf("write %d (pid %d %+v)", i, pid, op))
			}
			for pid := range v.Pending {
				v.SetOp(pid, Op{})
			}
			checkIndex(t, v, "cleared")
		})
	}
}

// checkIndex compares every kind's count and NextPending from every start
// in [-1, N+64] with a scan of Pending.
func checkIndex(t *testing.T, v *View, what string) {
	t.Helper()
	for k := OpRead; k <= OpCollect; k++ {
		count := 0
		for _, op := range v.Pending {
			if op.Valid && op.Kind == k {
				count++
			}
		}
		if c := v.CountPending(k); c != count {
			t.Fatalf("%s: %v count %d, want %d", what, k, c, count)
		}
		want := -1
		for from := v.N + 64; from >= -1; from-- {
			if from >= 0 && from < v.N && v.Pending[from].Valid && v.Pending[from].Kind == k {
				want = from
			}
			if got := v.NextPending(k, from); got != want {
				t.Fatalf("%s: %v NextPending from %d = %d, want %d", what, k, from, got, want)
			}
		}
	}
}
