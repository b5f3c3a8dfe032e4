package trace

import (
	"strings"
	"testing"

	"github.com/modular-consensus/modcon/internal/value"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Append(Event{Kind: Read})
	if l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil log retained events")
	}
	if got := l.Filter(func(Event) bool { return true }); got != nil {
		t.Fatalf("nil log Filter = %v", got)
	}
}

func TestAppendAndFilter(t *testing.T) {
	l := New()
	l.Append(Event{Step: 0, PID: 0, Kind: Read, Reg: 1, Val: value.None})
	l.Append(Event{Step: 1, PID: 1, Kind: Write, Reg: 1, Val: 7})
	l.Append(Event{Step: 2, PID: 0, Kind: Read, Reg: 1, Val: 7})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	writes := l.Filter(func(e Event) bool { return e.Kind == Write })
	if len(writes) != 1 || writes[0].Val != 7 {
		t.Fatalf("writes = %v", writes)
	}
}

// TestTake checks that a taken log keeps its events while the source, reset
// and reused as a pooled session's log is, records into other storage.
func TestTake(t *testing.T) {
	if (*Log)(nil).Take() != nil {
		t.Fatal("nil log took to non-nil")
	}
	l := New()
	l.Append(Event{Step: 0, PID: 0, Kind: Write, Reg: 1, Val: 7})
	got := l.Take()
	if l.Len() != 0 || got.Len() != 1 {
		t.Fatalf("after Take: source %d events, taken %d", l.Len(), got.Len())
	}
	l.Reset()
	l.Append(Event{Step: 0, PID: 1, Kind: Write, Reg: 1, Val: 9})
	if e := got.Events()[0]; e.PID != 0 || e.Val != 7 {
		t.Fatalf("taken event changed to %v by the source's next record", e)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		Read: "read", Write: "write", ProbWrite: "probwrite",
		Collect: "collect", Coin: "coin", Invoke: "invoke",
		Return: "return", Halt: "halt", Crash: "crash",
		Kind(99): "kind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestEventStringForms(t *testing.T) {
	tests := []struct {
		e    Event
		want []string // substrings that must appear
	}{
		{Event{Step: 3, PID: 1, Kind: Read, Reg: 2, Val: value.None}, []string{"p1", "read", "r2", "⊥"}},
		{Event{Step: 4, PID: 2, Kind: Write, Reg: 0, Val: 5}, []string{"write", "r0", "<- 5"}},
		{
			Event{Step: 5, PID: 0, Kind: ProbWrite, Reg: 1, Val: 9, ProbNum: 1, ProbDen: 8, Succeeded: true},
			[]string{"probwrite", "p=1/8", "hit"},
		},
		{
			Event{Step: 6, PID: 0, Kind: ProbWrite, Reg: 1, Val: 9, ProbNum: 1, ProbDen: 8},
			[]string{"miss"},
		},
		{Event{Step: -1, PID: 0, Kind: Coin, Val: 1}, []string{"coin", "-> 1", "     -"}},
		{Event{Step: -1, PID: 0, Kind: Invoke, Label: "C1", Val: 3}, []string{"invoke", "C1(3)"}},
		{Event{Step: -1, PID: 0, Kind: Return, Label: "R1", Val: 3, Decided: true}, []string{"(1, 3)"}},
		{Event{Step: -1, PID: 0, Kind: Halt, Val: 2}, []string{"decide 2"}},
		{Event{Step: 7, PID: 0, Kind: Collect, Reg: 4}, []string{"collect", "r4.."}},
	}
	for _, tt := range tests {
		s := tt.e.String()
		for _, sub := range tt.want {
			if !strings.Contains(s, sub) {
				t.Errorf("event %v rendered %q, missing %q", tt.e.Kind, s, sub)
			}
		}
	}
}

func TestLogString(t *testing.T) {
	l := New()
	l.Append(Event{Step: 0, PID: 0, Kind: Write, Reg: 0, Val: 1})
	l.Append(Event{Step: 1, PID: 1, Kind: Read, Reg: 0, Val: 1})
	s := l.String()
	if strings.Count(s, "\n") != 2 {
		t.Fatalf("expected 2 lines, got %q", s)
	}
}
