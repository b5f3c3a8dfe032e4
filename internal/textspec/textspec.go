// Package textspec is the lexical layer of the one-line spec texts that
// describe the model: fault plans (fault.Parse), workload specs
// (workload.Parse) and parametric adversary configs (sched.ParseParametric).
// All three share one grammar:
//
//	text    = segment { ";" segment }
//	segment = kind ":" [ param { "," param } ]  |  blank
//	param   = key "=" value
//
// Whitespace around every element is ignored. A kind and a key are never
// empty; a value may be empty, and may contain ':' and '=' but not ',' or
// ';' ("when=step-ge:100", "w=3:0:1"). Within one segment a key appears at
// most once. Split rejects a non-blank segment without ':' or with an empty
// kind, a parameter that is empty or not key=value, an empty key, and a
// repeated key. It returns a blank segment as an empty Segment and leaves
// its meaning to the caller: fault plans and workload specs skip blank
// segments, adversary configs reject them.
//
// Only the lexical rules live here. Each grammar's package owns its kinds
// and keys, parses and validates the values, and renders the canonical text
// its parser reads back. Lookup maps a name to an enum value through the
// enum's own String method, so every name is spelled once.
package textspec

import (
	"fmt"
	"slices"
	"strings"
)

// Param is one key=value parameter of a segment, both trimmed.
type Param struct{ Key, Val string }

// Segment is one ';'-separated segment of a spec text. A blank segment has
// an empty Kind and no parameters.
type Segment struct {
	// Text is the segment as written, trimmed, for error messages.
	Text string
	// Kind is the text before the segment's first ':'.
	Kind string
	// Params are the segment's parameters in text order.
	Params []Param
}

// Has reports whether the segment has a parameter named key.
func (s Segment) Has(key string) bool {
	return slices.ContainsFunc(s.Params, func(p Param) bool { return p.Key == key })
}

// Split lexes text into its segments, in text order. Its errors name the
// offending segment but no package; callers prefix their own.
func Split(text string) ([]Segment, error) {
	parts := strings.Split(text, ";")
	segs := make([]Segment, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("segment %q: missing ':' (want kind:key=value,...)", part)
		}
		seg := Segment{Text: part, Kind: strings.TrimSpace(kind)}
		if seg.Kind == "" {
			return nil, fmt.Errorf("segment %q: empty kind", part)
		}
		if rest = strings.TrimSpace(rest); rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(kv, "=")
				key, val = strings.TrimSpace(key), strings.TrimSpace(val)
				if !ok || key == "" {
					return nil, fmt.Errorf("segment %q: parameter %q is not key=value", part, strings.TrimSpace(kv))
				}
				if seg.Has(key) {
					return nil, fmt.Errorf("segment %q: duplicate key %q", part, key)
				}
				seg.Params = append(seg.Params, Param{key, val})
			}
		}
		segs[i] = seg
	}
	return segs, nil
}

// Lookup returns the value in [lo, hi] whose String() is name, and whether
// there is one. The enum's values must be contiguous from lo to hi.
func Lookup[E interface {
	~int
	String() string
}](name string, lo, hi E) (E, bool) {
	for e := lo; e <= hi; e++ {
		if e.String() == name {
			return e, true
		}
	}
	return 0, false
}
