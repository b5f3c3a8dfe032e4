package textspec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// seg builds an expected segment; kv alternates keys and values.
func seg(text, kind string, kv ...string) Segment {
	s := Segment{Text: text, Kind: kind}
	for i := 0; i < len(kv); i += 2 {
		s.Params = append(s.Params, Param{kv[i], kv[i+1]})
	}
	return s
}

func TestSplit(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []Segment // nil: Split must fail
	}{
		{"empty text", "", []Segment{{}}},
		{"blank text", " \t ", []Segment{{}}},
		{"one segment", "crash:pid=2,after=5", []Segment{seg("crash:pid=2,after=5", "crash", "pid", "2", "after", "5")}},
		{"whitespace around every element", " crash : pid = 2 , after = 5 ",
			[]Segment{seg("crash : pid = 2 , after = 5", "crash", "pid", "2", "after", "5")}},
		{"segments in text order", "adv:base=rr;rule:when=always,do=lowest",
			[]Segment{seg("adv:base=rr", "adv", "base", "rr"), seg("rule:when=always,do=lowest", "rule", "when", "always", "do", "lowest")}},
		{"blank segments kept in place", ";crash:after=1; ;",
			[]Segment{{}, seg("crash:after=1", "crash", "after", "1"), {}, {}}},
		{"kind without parameters", "serve:", []Segment{seg("serve:", "serve")}},
		{"kind with blank parameters", "serve:  ", []Segment{seg("serve:", "serve")}},
		{"empty value", "periods:pattern=", []Segment{seg("periods:pattern=", "periods", "pattern", "")}},
		{"':' inside a value", "rule:when=step-ge:100,do=lowest",
			[]Segment{seg("rule:when=step-ge:100,do=lowest", "rule", "when", "step-ge:100", "do", "lowest")}},
		{"':' list inside a value", "adv:w=3:0:1", []Segment{seg("adv:w=3:0:1", "adv", "w", "3:0:1")}},
		{"'=' inside a value", "k:a=b=c", []Segment{seg("k:a=b=c", "k", "a", "b=c")}},
		{"same key in two segments", "k:a=1;k:a=2", []Segment{seg("k:a=1", "k", "a", "1"), seg("k:a=2", "k", "a", "2")}},
		{"missing ':'", "crash", nil},
		{"missing ':' after a good segment", "crash:after=1;stall", nil},
		{"empty kind", ":after=1", nil},
		{"blank kind", "  :after=1", nil},
		{"empty parameter in the middle", "crash:pid=1,,after=2", nil},
		{"empty trailing parameter", "poisson:rate=1,", nil},
		{"empty leading parameter", "poisson:,rate=1", nil},
		{"blank parameter", "poisson:rate=1, ,on=1s", nil},
		{"parameter without '='", "poisson:rate", nil},
		{"empty key", "crash:=2", nil},
		{"blank key", "crash: =2", nil},
		{"repeated key", "crash:after=1,after=2", nil},
		{"repeated key after trimming", "crash:after=1, after =2", nil},
	}
	for _, c := range cases {
		got, err := Split(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: Split(%q) = %+v, want an error", c.name, c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Split(%q): %v", c.name, c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Split(%q) = %+v, want %+v", c.name, c.in, got, c.want)
		}
	}
}

func TestSplitErrorsNameTheSegment(t *testing.T) {
	for in, want := range map[string]string{
		"a:x=1;crash":          `segment "crash": missing ':'`,
		"a:x=1;:y=2":           `segment ":y=2": empty kind`,
		"poisson:rate=1,":      `segment "poisson:rate=1,": parameter "" is not key=value`,
		"crash:after=1,after=": `segment "crash:after=1,after=": duplicate key "after"`,
	} {
		_, err := Split(in)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Split(%q): error %v, want one starting %q", in, err, want)
		}
	}
}

// color is a test enum with the same shape as the packages' enums: values
// from 1, named by a String switch, anything else rendered as a fallback.
type color int

const (
	red color = iota + 1
	green
	blue
)

func (c color) String() string {
	switch c {
	case red:
		return "red"
	case green:
		return "green"
	case blue:
		return "blue"
	default:
		return fmt.Sprintf("color(%d)", int(c))
	}
}

func TestLookup(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi color
		want   color
		ok     bool
	}{
		{"red", red, blue, red, true},
		{"green", red, blue, green, true},
		{"blue", red, blue, blue, true},
		{"blue", red, green, 0, false}, // outside [lo, hi]
		{"Blue", red, blue, 0, false},  // names are case-sensitive
		{" red", red, blue, 0, false},  // and not trimmed
		{"", red, blue, 0, false},
		{"color(0)", red, blue, 0, false}, // a fallback rendering is no name
		{"color(4)", red, blue, 0, false},
	}
	for _, c := range cases {
		got, ok := Lookup(c.name, c.lo, c.hi)
		if got != c.want || ok != c.ok {
			t.Errorf("Lookup(%q, %s, %s) = %s, %v; want %s, %v", c.name, c.lo, c.hi, got, ok, c.want, c.ok)
		}
	}
}

// join renders segments back into the grammar, the inverse of Split on
// the segments it accepts (up to whitespace).
func join(segs []Segment) string {
	parts := make([]string, len(segs))
	for i, s := range segs {
		if s.Kind == "" {
			continue
		}
		kvs := make([]string, len(s.Params))
		for j, p := range s.Params {
			kvs[j] = p.Key + "=" + p.Val
		}
		parts[i] = s.Kind + ":" + strings.Join(kvs, ",")
	}
	return strings.Join(parts, ";")
}

// FuzzSplit pins the lexer under arbitrary input: Split never panics, and
// the segments it accepts, joined back into text, split back into the same
// kinds and parameters.
func FuzzSplit(f *testing.F) {
	for _, seed := range []string{
		"",
		";;",
		"crash:pid=2,after=5;losecoin:p=1/8",
		" poisson : rate = 2.5 ;serve:",
		"adv:power=location-oblivious,base=weighted,w=3:0:1,phase=8/2/4;rule:when=step-ge:100,do=lowest",
		"k:a=b=c",
		"crash:pid=1,,after=2",
		"poisson:rate=1,",
		"adv:base=rr;",
		"crash",
		"adv",
		":x=1",
		"k:=1",
		"k:a=1,a=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		segs, err := Split(in)
		if err != nil {
			if segs != nil {
				t.Fatalf("Split(%q) returned both segments and an error", in)
			}
			return
		}
		out := join(segs)
		again, err := Split(out)
		if err != nil {
			t.Fatalf("joined form %q of %q does not split: %v", out, in, err)
		}
		if len(again) != len(segs) {
			t.Fatalf("joined form %q of %q splits into %d segments, want %d", out, in, len(again), len(segs))
		}
		for i := range segs {
			if again[i].Kind != segs[i].Kind || !reflect.DeepEqual(again[i].Params, segs[i].Params) {
				t.Fatalf("segment %d of %q: %+v, after joining to %q: %+v", i, in, segs[i], out, again[i])
			}
		}
	})
}
