package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseSpec pins the parser contract under arbitrary input: Parse
// never panics, any accepted spec validates, and its canonical form is a
// fixed point of Parse∘String.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"poisson:rate=500",
		"steady:rate=1234.5",
		"burst:rate=800,on=50ms,off=150ms",
		"periods:pattern=500x100ms/0x1s/50x400ms",
		"closed:clients=16,think=2ms",
		"poisson:rate=2000;serve:servers=4,step=500ns",
		"serve:step=2µs;closed:clients=8,think=1ms",
		"poisson:rate=1e+06",
		"poisson:rate=0",
		"burst:rate=1,on=1s",
		"warble:rate=1",
		"poisson:rate=1,rate=2",
		";;",
		"poisson:rate=1,",
		"poisson:rate=1;",
		"poisson",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := Parse(in)
		if err != nil {
			return
		}
		if spec == nil {
			// Only the documented empty form maps to a nil spec.
			if strings.TrimSpace(in) != "" {
				t.Fatalf("Parse(%q) = nil, nil for non-empty input", in)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid spec: %v", in, err)
		}
		canon := spec.String()
		if strings.ContainsAny(canon, " \t\r\n") {
			t.Fatalf("canonical form %q contains whitespace", canon)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, again.String())
		}
	})
}

// FuzzTraceDecode pins the trace codec under arbitrary input: Decode
// never panics, and any trace it accepts re-encodes to identical bytes.
func FuzzTraceDecode(f *testing.F) {
	f.Add("tracev1 spec=poisson:rate=500 seed=7 trials=2 lo=0 hi=2\n0 0 10\n1 1500 12\n")
	f.Add("tracev1 spec=closed:clients=2,think=1µs seed=1 trials=1 lo=0 hi=1\n0 0 3\n")
	f.Add("tracev1 spec=steady:rate=1000 seed=0 trials=3 lo=1 hi=3\n1 1000000 5\n2 2000000 5\n")
	f.Add("tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n")
	f.Add("tracev2 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n0 0 1\n")
	f.Add("tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n0 0 -1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Decode(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Encode(&out); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		back, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		var again bytes.Buffer
		if err := back.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("encode is not a fixed point after decode")
		}
	})
}
