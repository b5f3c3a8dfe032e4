package sim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/obs"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/value"
)

// runStepLoopMeter is runStepLoop with an explicit meter setting, driving the
// same benchBody workload.
func runStepLoopMeter(power sched.Power, n, steps int, m *obs.Meter) (*exec.Result, error) {
	f := register.NewFile()
	a := f.Alloc(n, "bench")
	cfg := benchConfig(power, n, steps, f)
	cfg.Meter = m
	res, err := runOnce(cfg, 1, func(e core.Env) value.Value { return benchBody(e, a) })
	if err != nil && !errors.Is(err, exec.ErrStepLimit) {
		return nil, err
	}
	return res, nil
}

// TestStepLoopZeroAllocsMeterOff pins the obs plane's zero-overhead-when-off
// contract on the sim hot path: with exec.Config.Meter explicitly nil the step
// loop performs zero allocations per step, exactly as before the plane
// existed. (The ns/step side of the contract is covered by
// TestStepEngineSpeedup, which fails if the step path slows past its guard.)
func TestStepLoopZeroAllocsMeterOff(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs a long run")
	}
	for _, power := range []sched.Power{sched.Oblivious, sched.ValueOblivious} {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if _, err := runStepLoopMeter(power, 16, b.N, nil); err != nil {
				b.Fatal(err)
			}
		})
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s/n=16 meter off: %d allocs/step, want 0 (%s)", power, a, r.MemString())
		}
	}
}

// TestStepLoopMeterCounts pins the enabled side: the meter sees exactly one
// tick per executed operation, metering performs no per-step allocations
// (one atomic add), and results are bit-identical with and without a meter.
func TestStepLoopMeterCounts(t *testing.T) {
	const steps = 10_000
	m := &obs.Meter{}
	metered, err := runStepLoopMeter(sched.Oblivious, 16, steps, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Steps(); got != steps {
		t.Fatalf("meter counted %d steps, want %d", got, steps)
	}
	plain, err := runStepLoopMeter(sched.Oblivious, 16, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(metered, plain) {
		t.Fatalf("metering changed the result:\nmetered: %+v\nplain:   %+v", metered, plain)
	}

	if testing.Short() {
		return
	}
	m.Reset()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if _, err := runStepLoopMeter(sched.Oblivious, 16, b.N, m); err != nil {
			b.Fatal(err)
		}
	})
	if a := r.AllocsPerOp(); a != 0 {
		t.Errorf("meter on: %d allocs/step, want 0 (%s)", a, r.MemString())
	}
}
