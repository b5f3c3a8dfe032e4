package live

import (
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/check"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// TestLiveRegularStaleRead is the live-backend separation witness: a write
// that lands inside a read's invocation/response window (interposed
// deterministically through the readYield hook) may be resolved to the old
// value under Regular — atomic registers return whatever one linearized
// load observes and never consult a coin. The resolution is a pure function
// of the per-process semantics stream, so a given seed always resolves the
// same way.
func TestLiveRegularStaleRead(t *testing.T) {
	read := func(model register.Semantics, seed uint64) value.Value {
		file := register.NewFile()
		r := file.Alloc1("x")
		file.Init(r, 5)
		prog := func(ce core.Env) value.Value {
			e := ce.(*env)
			old := readYield
			readYield = func() { e.mem.Store(r, 9) }
			defer func() { readYield = old }()
			return e.Read(r)
		}
		res, err := run(nil, exec.Config{N: 1, File: file, Registers: model}, seed, prog)
		if err != nil {
			t.Fatalf("%v seed %d: %v", model, seed, err)
		}
		return res.Outputs[0]
	}

	sawOld, sawNew := false, false
	for seed := uint64(0); seed < 64; seed++ {
		// Atomic never calls the yield hook: one linearized load, no coin.
		if got := read(register.Atomic, seed); got != 5 {
			t.Fatalf("atomic single-sample read = %s, want 5 (seed %d)", got, seed)
		}
		switch got := read(register.Regular, seed); got {
		case 5:
			sawOld = true
		case 9:
			sawNew = true
		default:
			t.Fatalf("regular overlapping read = %s, want 5 or 9 (seed %d)", got, seed)
		}
		// Same seed, same stream, same resolution: bit-reproducible coins.
		first := read(register.Regular, seed)
		if second := read(register.Regular, seed); second != first {
			t.Fatalf("seed %d resolved to %s then %s — the semantics stream is not deterministic", seed, first, second)
		}
	}
	if !sawOld {
		t.Error("no seed in [0,64) resolved the overlapping read to the old value")
	}
	if !sawNew {
		t.Error("no seed in [0,64) resolved the overlapping read to the new value")
	}
}

// TestLiveRejectsInterposed: the blunting layer is meaningless without an
// adversary to blunt; asking for it on live is a config error, not a no-op.
func TestLiveRejectsInterposed(t *testing.T) {
	file := register.NewFile()
	file.Alloc1("x")
	noop := func(e core.Env) value.Value { return 0 }
	_, err := run(nil, exec.Config{N: 1, File: file, Registers: register.Interposed}, 0, noop)
	if err == nil {
		t.Fatal("live accepted interposed registers")
	}
	if !strings.Contains(err.Error(), "interposed") {
		t.Errorf("rejection %q does not name the model", err)
	}
}

// TestLiveCapabilitiesSemantics pins the declared capability set: atomic
// and regular, not interposed.
func TestLiveCapabilitiesSemantics(t *testing.T) {
	caps := Backend().Capabilities()
	if !caps.Semantics.Has(register.Atomic) || !caps.Semantics.Has(register.Regular) {
		t.Errorf("live semantics set %b is missing atomic or regular", caps.Semantics)
	}
	if caps.Semantics.Has(register.Interposed) {
		t.Errorf("live semantics set %b claims interposed", caps.Semantics)
	}
}

// TestLiveRegularConsensus runs the full protocol chain over genuinely
// concurrent regular-register reads (the CI semantics smoke runs this under
// -race): safety must hold on every run — consensus algorithms built on
// collect loops tolerate regular registers because every decision re-reads
// until the memory is quiescent.
func TestLiveRegularConsensus(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		file, proto, err := buildConsensus(4)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []value.Value{0, 1, 1, 0}
		res, err := run(nil, exec.Config{N: 4, File: file, Registers: register.Regular}, seed, func(e core.Env) value.Value {
			out, ok := proto.Run(e, inputs[e.PID()])
			if !ok {
				t.Errorf("pid %d fell off the chain", e.PID())
			}
			return out
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := check.Consensus(inputs, res.HaltedOutputs()); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}
