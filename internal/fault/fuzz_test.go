package fault

import (
	"testing"
)

// FuzzParse pins three properties of the plan grammar:
//
//  1. Parse never panics, whatever the input.
//  2. Anything Parse accepts passes n-independent validation and survives
//     compilation for a small process count (after dropping out-of-range
//     pids, which Compile legitimately rejects).
//  3. String/Parse is a canonical round trip: re-parsing a plan's string
//     form reproduces the same string.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"crash:pid=2,after=5",
		"crashround:pid=*,round=3",
		"stall:pid=1,after=0",
		"delay:pid=*,max=200us",
		"losecoin:pid=*,p=1/8",
		"losecoin:pid=0,p=0.125",
		"crash:pid=0,after=0;stall:pid=*,after=7;losecoin:pid=3,p=3/4",
		"crash:after=1;;delay:max=1ms",
		"crash:pid=999999,after=1",
		"delay:pid=1,max=1h",
		"losecoin:p=1/0",
		"kind:pid=*",
		"crash:pid=1,after=1,after=2",
		"crash:pid=1,,after=2",
		"crash:after=2;",
		"crash",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned both a plan and an error", s)
			}
			return
		}
		if p == nil {
			return // empty input
		}
		if err := p.Validate(0); err != nil {
			t.Fatalf("accepted plan %q fails validation: %v", p, err)
		}
		out := p.String()
		q, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", out, s, err)
		}
		if q.String() != out {
			t.Fatalf("round trip not canonical: %q -> %q", out, q.String())
		}
		// Compilation must never panic; errors are allowed only for pids
		// out of the compile-time range.
		if _, err := Compile(p, 4, 1); err != nil {
			if verr := p.Validate(4); verr == nil {
				t.Fatalf("Compile rejected in-range plan %q: %v", p, err)
			}
		}
	})
}
