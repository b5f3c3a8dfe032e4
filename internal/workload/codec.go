package workload

// Text and JSON codec for Spec. The text is in the textspec grammar, with
// a canonical String/Parse round trip pinned by FuzzParseSpec. The JSON form
// is the same canonical text embedded as a JSON string, so every transport
// carries one unambiguous representation.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/modular-consensus/modcon/internal/textspec"
)

// formatRate renders an arrival rate in the shortest form that parses back
// to the identical float64, so String/Parse round trips are exact.
func formatRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// String renders the spec in the Parse grammar: the arrival segment,
// followed by a serve segment iff Servers or Step was set explicitly.
// Parse(s.String()) reproduces the spec exactly (the fuzz target pins the
// round trip). A nil spec renders as "".
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	switch s.Kind {
	case Poisson, Steady:
		fmt.Fprintf(&b, "%s:rate=%s", s.Kind, formatRate(s.Rate))
	case Burst:
		fmt.Fprintf(&b, "burst:rate=%s,on=%s,off=%s", formatRate(s.Rate), s.On, s.Off)
	case Periods:
		parts := make([]string, len(s.Periods))
		for i, p := range s.Periods {
			parts[i] = fmt.Sprintf("%sx%s", formatRate(p.Rate), p.Span)
		}
		fmt.Fprintf(&b, "periods:pattern=%s", strings.Join(parts, "/"))
	case Closed:
		fmt.Fprintf(&b, "closed:clients=%d,think=%s", s.Clients, s.Think)
	default:
		fmt.Fprintf(&b, "%s:", s.Kind)
	}
	if s.Servers != 0 || s.Step != 0 {
		b.WriteString(";serve:")
		sep := ""
		if s.Servers != 0 {
			fmt.Fprintf(&b, "servers=%d", s.Servers)
			sep = ","
		}
		if s.Step != 0 {
			fmt.Fprintf(&b, "%sstep=%s", sep, s.Step)
		}
	}
	return b.String()
}

// Parse reads a spec from its textual form, one segment of the textspec
// grammar per arrival process or service model (blank segments are
// skipped):
//
//	kind     = poisson | burst | steady | periods | closed | serve
//
//	poisson:rate=500                    Poisson arrivals, 500/sec
//	burst:rate=800,on=50ms,off=150ms    on/off-modulated Poisson
//	steady:rate=250                     deterministic even spacing
//	periods:pattern=500x100ms/50x400ms  cycling piecewise-constant Poisson
//	closed:clients=16,think=2ms         closed cohort with think time
//	serve:servers=4,step=1µs            service-model knobs (optional)
//
// Exactly one arrival segment is required; the serve segment is optional
// and may appear at most once. Rates accept any strconv.ParseFloat form;
// durations any time.ParseDuration form. The empty string parses to a nil
// spec (no workload).
func Parse(text string) (*Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	segs, err := textspec.Split(text)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	var (
		spec     Spec
		haveKind bool
		haveSrv  bool
	)
	for _, seg := range segs {
		if seg.Kind == "" {
			continue
		}
		set := spec.setArrival
		if seg.Kind == "serve" {
			if haveSrv {
				return nil, fmt.Errorf("workload: duplicate serve segment")
			}
			haveSrv, set = true, spec.setServe
		} else {
			if haveKind {
				return nil, fmt.Errorf("workload: segment %q: spec already has a %s arrival segment", seg.Text, spec.Kind)
			}
			kind, ok := textspec.Lookup(seg.Kind, Poisson, Closed)
			if !ok {
				return nil, fmt.Errorf("workload: segment %q: unknown kind %q", seg.Text, seg.Kind)
			}
			spec.Kind, haveKind = kind, true
		}
		for _, p := range seg.Params {
			if err := set(p.Key, p.Val); err != nil {
				return nil, fmt.Errorf("workload: segment %q: %w", seg.Text, err)
			}
		}
	}
	if !haveKind {
		return nil, fmt.Errorf("workload: spec %q has no arrival segment", text)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// setArrival applies one parameter of the arrival segment to the spec.
func (s *Spec) setArrival(key, val string) error {
	switch {
	case key == "rate" && (s.Kind == Poisson || s.Kind == Burst || s.Kind == Steady):
		r, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("rate=%q: %v", val, err)
		}
		s.Rate = r
	case key == "on" && s.Kind == Burst:
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("on=%q: %v", val, err)
		}
		s.On = d
	case key == "off" && s.Kind == Burst:
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("off=%q: %v", val, err)
		}
		s.Off = d
	case key == "pattern" && s.Kind == Periods:
		for _, item := range strings.Split(val, "/") {
			rateStr, spanStr, ok := strings.Cut(item, "x")
			if !ok {
				return fmt.Errorf("pattern item %q is not RATExSPAN", item)
			}
			r, err := strconv.ParseFloat(rateStr, 64)
			if err != nil {
				return fmt.Errorf("pattern item %q: %v", item, err)
			}
			d, err := time.ParseDuration(spanStr)
			if err != nil {
				return fmt.Errorf("pattern item %q: %v", item, err)
			}
			s.Periods = append(s.Periods, Period{Rate: r, Span: d})
		}
	case key == "clients" && s.Kind == Closed:
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("clients=%q: want an integer", val)
		}
		s.Clients = n
	case key == "think" && s.Kind == Closed:
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("think=%q: %v", val, err)
		}
		s.Think = d
	default:
		return fmt.Errorf("key %q not valid for %s", key, s.Kind)
	}
	return nil
}

// setServe applies one parameter of the optional serve segment to the spec.
func (s *Spec) setServe(key, val string) error {
	switch key {
	case "servers":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("servers=%q: want an integer", val)
		}
		s.Servers = n
	case "step":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("step=%q: %v", val, err)
		}
		s.Step = d
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// MarshalJSON encodes the spec as its canonical text form in a JSON
// string, so JSON artifacts and the text grammar carry one representation.
func (s *Spec) MarshalJSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a spec from its canonical-text JSON string.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var text string
	if err := json.Unmarshal(data, &text); err != nil {
		return err
	}
	p, err := Parse(text)
	if err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("workload: empty spec in JSON")
	}
	*s = *p
	return nil
}
