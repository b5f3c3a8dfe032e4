package live

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/exec"
	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// waitNoLeak polls until the goroutine count returns to the baseline
// (other tests' stragglers may still be winding down, so poll, don't
// snapshot).
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineLeakOnCancellation: cancelling a run — including one whose
// processes are stalled in the livelock injection point — must unwind every
// process goroutine.
func TestNoGoroutineLeakOnCancellation(t *testing.T) {
	base := runtime.NumGoroutine()

	// Busy processes cancelled mid-loop.
	file := register.NewFile()
	r := file.Alloc1("x")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := run(ctx, exec.Config{N: 4, File: file}, 1, func(e core.Env) value.Value {
		for i := 0; ; i++ {
			e.Write(r, value.Value(i))
		}
	})
	if !errors.Is(err, exec.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	waitNoLeak(t, base)

	// Stalled processes: they block inside stallForever until the context
	// fires, then must unwind as stalled rather than linger.
	file2 := register.NewFile()
	r2 := file2.Alloc1("y")
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	res, err := run(ctx2, exec.Config{
		N: 4, File: file2,
		Faults: fault.New(fault.Stall(fault.AllProcs, 2)),
	}, 1, func(e core.Env) value.Value {
		for i := 0; ; i++ {
			e.Write(r2, value.Value(i))
		}
	})
	if !errors.Is(err, exec.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled run err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
	for pid, s := range res.Stalled {
		if !s {
			t.Fatalf("pid %d not recorded stalled", pid)
		}
	}
	waitNoLeak(t, base)
}

// TestNoGoroutineLeakOnPanic: a program panic propagates out of Run on the
// caller's goroutine — after every other process goroutine has already been
// joined, so the panic leaves nothing behind.
func TestNoGoroutineLeakOnPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	file := register.NewFile()
	r := file.Alloc1("x")

	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("program panic did not propagate out of Run")
			}
			if s, ok := p.(string); !ok || s != "mid-trial bug" {
				t.Fatalf("recovered %v, want the original panic value", p)
			}
		}()
		run(nil, exec.Config{N: 4, File: file}, 1, func(e core.Env) value.Value {
			for i := 0; i < 5; i++ {
				e.Write(r, value.Value(i))
			}
			if e.PID() == 2 {
				panic("mid-trial bug")
			}
			return 0
		})
	}()
	waitNoLeak(t, base)
}
