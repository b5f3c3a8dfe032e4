package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/xrand"
)

func TestTrialSeedDeterministicAndDispersed(t *testing.T) {
	if TrialSeed(1, 0) != TrialSeed(1, 0) {
		t.Fatal("TrialSeed is not a pure function")
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		s := TrialSeed(42, i)
		if seen[s] {
			t.Fatalf("TrialSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if TrialSeed(1, 7) == TrialSeed(2, 7) {
		t.Fatal("distinct roots give identical trial seeds")
	}
}

func TestProcStreamsIndependent(t *testing.T) {
	root := xrand.New(9)
	c0, c1 := ProcCoins(root, 0), ProcCoins(root, 1)
	p0 := ProcProb(root, 0)
	if c0.Uint64() == c1.Uint64() {
		t.Fatal("pid 0 and pid 1 coin streams coincide")
	}
	// Re-deriving from an un-advanced root must reproduce the stream.
	root2 := xrand.New(9)
	if ProcProb(root2, 0).Uint64() != p0.Uint64() {
		t.Fatal("ProcProb is not reproducible from the root seed")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (&Config{N: 0, File: register.NewFile()}).Validate(); err == nil {
		t.Fatal("N=0 accepted")
	}
	if err := (&Config{N: 1}).Validate(); err == nil {
		t.Fatal("nil file accepted")
	}
	if err := (&Config{N: 1, File: register.NewFile()}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramsBroadcastAndMismatch(t *testing.T) {
	var p Program = nil
	got, err := Programs(3, []Program{p})
	if err != nil || len(got) != 3 {
		t.Fatalf("broadcast: len=%d err=%v", len(got), err)
	}
	if _, err := Programs(3, []Program{p, p}); err == nil {
		t.Fatal("2 programs for 3 processes accepted")
	}
	if got, err := Programs(2, []Program{p, p}); err != nil || len(got) != 2 {
		t.Fatalf("exact: len=%d err=%v", len(got), err)
	}
}

// seedSession is a Session that records the seeds it ran and reports each
// seed as the trial's total work.
type seedSession struct{ ran []uint64 }

func (s *seedSession) Run(ctx context.Context, seed uint64) (*Result, error) {
	s.ran = append(s.ran, seed)
	r := NewResult(1)
	r.TotalWork = int(seed)
	return r, nil
}

func (s *seedSession) Close() error { return nil }

// TestRunSeedsBeginErrorAndEarlyStop pins the rest of RunSeeds' begin/emit
// protocol: a begin error is that trial's error, delivered through emit
// without running its seed, and emit returning false stops the loop with no
// error.
func TestRunSeedsBeginErrorAndEarlyStop(t *testing.T) {
	sess := &seedSession{}
	staged := errors.New("staging failed")
	var emitted []string
	err := RunSeeds(sess, nil, []uint64{10, 20, 30, 40}, func(k int) error {
		if k == 1 {
			return staged
		}
		return nil
	}, func(k int, res *Result, err error) bool {
		switch {
		case errors.Is(err, staged) && res == nil:
			emitted = append(emitted, fmt.Sprintf("%d:staged", k))
		case err == nil && res != nil:
			emitted = append(emitted, fmt.Sprintf("%d:work=%d", k, res.TotalWork))
		default:
			t.Errorf("trial %d: unexpected emit (res %v, err %v)", k, res, err)
		}
		return k < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"0:work=10", "1:staged", "2:work=30"}; !reflect.DeepEqual(emitted, want) {
		t.Errorf("emitted %v, want %v", emitted, want)
	}
	if want := []uint64{10, 30}; !reflect.DeepEqual(sess.ran, want) {
		t.Errorf("session ran seeds %v, want %v", sess.ran, want)
	}
}

func TestNewResultDefaults(t *testing.T) {
	r := NewResult(2)
	for _, v := range r.Outputs {
		if !v.IsNone() {
			t.Fatal("outputs not initialized to ⊥")
		}
	}
	r.Work = []int{3, 7}
	if r.MaxIndividualWork() != 7 {
		t.Fatal("MaxIndividualWork wrong")
	}
	r.Halted[1] = true
	r.Outputs[1] = 5
	out := r.HaltedOutputs()
	if len(out) != 1 || out[0] != 5 {
		t.Fatalf("HaltedOutputs = %v", out)
	}
}
