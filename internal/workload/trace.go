package workload

// tracev1 — the versioned trace format recording an executed workload.
//
// A trace is the workload plane's portable artifact: the spec (canonical
// text), the root seed, the trial span, and one entry per trial with its
// arrival time and measured service demand. Every field is derivable from
// (spec, seed, trials) plus the deterministic executions themselves, which
// is what makes replay *verifiable*: re-running the trace recomputes each
// demand and any divergence — a changed binary, a different register
// model, a broken determinism contract — is a hard error, not a silently
// different report.
//
// The encoding is line-oriented text:
//
//	tracev1 spec=poisson:rate=500 seed=7 trials=64 lo=0 hi=64
//	0 0 381
//	1 1729384 402
//	...
//
// one "index arrivalNs steps" line per trial. Shard slices carry lo/hi
// sub-ranges of the same header; Merge demands an exact tiling of
// [0, trials) over identical headers, so sharded recordings concatenate
// into byte-for-byte the artifact an unsharded run writes.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// TraceVersion is the format tag Encode writes and Decode requires.
const TraceVersion = "tracev1"

// maxTraceEntries caps how many entries Decode will read, so a corrupt or
// hostile header cannot make it allocate unboundedly.
const maxTraceEntries = 1 << 26

// Entry records one executed trial of a workload.
type Entry struct {
	// Index is the trial's global index in [0, Trace.Trials).
	Index int
	// ArrivalNs is the trial's arrival (closed: issue) time in virtual ns.
	ArrivalNs int64
	// Steps is the trial's measured service demand in simulated steps.
	Steps int64
}

// Trace is a recorded workload execution (or a shard's slice of one).
type Trace struct {
	// Spec is the workload spec in canonical text form.
	Spec string
	// Seed is the root seed the run derived trial seeds and arrivals from.
	Seed uint64
	// Trials is the full seed-space size the recording covers (all shards
	// of one run share it).
	Trials int
	// Lo and Hi bound this trace's contiguous entry span [Lo, Hi); a full
	// trace has Lo = 0, Hi = Trials.
	Lo, Hi int
	// Entries holds one record per trial, indices Lo..Hi-1 in order.
	Entries []Entry
}

// Complete reports whether the trace covers its full trial span.
func (t *Trace) Complete() bool { return t.Lo == 0 && t.Hi == t.Trials }

// ParseSpec parses the trace's embedded workload spec.
func (t *Trace) ParseSpec() (*Spec, error) {
	s, err := Parse(t.Spec)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("workload: trace has an empty spec")
	}
	return s, nil
}

// validate checks the trace's internal consistency: span bounds, entry
// count, consecutive indices, sorted arrivals, non-negative demands, and
// a parseable spec (which must also survive a canonical round trip, so a
// trace never smuggles a non-canonical form into merged artifacts).
func (t *Trace) validate() error {
	spec, err := t.ParseSpec()
	if err != nil {
		return err
	}
	if spec.String() != t.Spec {
		return fmt.Errorf("workload: trace spec %q is not canonical (want %q)", t.Spec, spec.String())
	}
	if t.Trials < 0 || t.Lo < 0 || t.Hi < t.Lo || t.Hi > t.Trials {
		return fmt.Errorf("workload: trace span [%d,%d) of %d trials is invalid", t.Lo, t.Hi, t.Trials)
	}
	if len(t.Entries) != t.Hi-t.Lo {
		return fmt.Errorf("workload: trace has %d entries for span [%d,%d)", len(t.Entries), t.Lo, t.Hi)
	}
	prev := int64(-1)
	for k, e := range t.Entries {
		if e.Index != t.Lo+k {
			return fmt.Errorf("workload: trace entry %d has index %d, want %d", k, e.Index, t.Lo+k)
		}
		if e.ArrivalNs < 0 || e.ArrivalNs < prev {
			return fmt.Errorf("workload: trace arrivals not sorted at index %d", e.Index)
		}
		prev = e.ArrivalNs
		if e.Steps < 0 {
			return fmt.Errorf("workload: trace entry %d has negative demand", e.Index)
		}
	}
	return nil
}

// Record assembles a trace from one executed slice [lo, hi) of a run:
// arrivals[k] and demands[k] describe global trial lo+k. The trace is
// validated before it is returned.
func Record(spec *Spec, seed uint64, trials, lo, hi int, arrivals, demands []int64) (*Trace, error) {
	if spec == nil {
		return nil, fmt.Errorf("workload: nil spec")
	}
	if len(arrivals) != hi-lo || len(demands) != hi-lo {
		return nil, fmt.Errorf("workload: %d arrivals and %d demands for span [%d,%d)", len(arrivals), len(demands), lo, hi)
	}
	t := &Trace{Spec: spec.String(), Seed: seed, Trials: trials, Lo: lo, Hi: hi,
		Entries: make([]Entry, hi-lo)}
	for k := range t.Entries {
		t.Entries[k] = Entry{Index: lo + k, ArrivalNs: arrivals[k], Steps: demands[k]}
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// RecordedArrivals returns the arrival times a recording of global trials
// [lo, hi) of a run carries, for the run's root seed and trial count. An
// open spec's are its schedule's slice, drawn up front without reading
// demands. A closed cohort's, necessarily for the whole run, are the issue
// times the virtual service model assigns from the trials' measured
// demands, so they are nil while demands is nil.
func (s *Spec) RecordedArrivals(seed uint64, trials, lo, hi int, demands []int64) ([]int64, error) {
	if s.Open() {
		sched, err := s.Schedule(seed, trials)
		if err != nil {
			return nil, err
		}
		return sched[lo:hi], nil
	}
	if demands == nil {
		return nil, nil
	}
	served, err := s.Serve(nil, demands)
	if err != nil {
		return nil, err
	}
	return served.Arrivals, nil
}

// Encode writes the trace in the tracev1 text format. Two equal traces
// encode to identical bytes, which is what the CI record-vs-replay and
// shard-merge gates compare with cmp.
func (t *Trace) Encode(w io.Writer) error {
	if err := t.validate(); err != nil {
		return err
	}
	if strings.ContainsAny(t.Spec, " \t\n") {
		return fmt.Errorf("workload: spec %q contains whitespace and cannot be encoded", t.Spec)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s spec=%s seed=%d trials=%d lo=%d hi=%d\n",
		TraceVersion, t.Spec, t.Seed, t.Trials, t.Lo, t.Hi)
	for _, e := range t.Entries {
		fmt.Fprintf(bw, "%d %d %d\n", e.Index, e.ArrivalNs, e.Steps)
	}
	return bw.Flush()
}

// Decode reads one tracev1 trace and validates it.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) == 0 || fields[0] != TraceVersion {
		return nil, fmt.Errorf("workload: not a %s trace (header %q)", TraceVersion, strings.TrimSpace(header))
	}
	t := &Trace{Lo: -1, Hi: -1, Trials: -1}
	seen := map[string]bool{}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("workload: trace header field %q is not key=value", f)
		}
		if seen[key] {
			return nil, fmt.Errorf("workload: trace header repeats %q", key)
		}
		seen[key] = true
		switch key {
		case "spec":
			t.Spec = val
		case "seed":
			if t.Seed, err = strconv.ParseUint(val, 10, 64); err != nil {
				return nil, fmt.Errorf("workload: trace seed %q: %v", val, err)
			}
		case "trials":
			if t.Trials, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("workload: trace trials %q: %v", val, err)
			}
		case "lo":
			if t.Lo, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("workload: trace lo %q: %v", val, err)
			}
		case "hi":
			if t.Hi, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("workload: trace hi %q: %v", val, err)
			}
		default:
			return nil, fmt.Errorf("workload: trace header has unknown field %q", key)
		}
	}
	for _, key := range []string{"spec", "seed", "trials", "lo", "hi"} {
		if !seen[key] {
			return nil, fmt.Errorf("workload: trace header missing %q", key)
		}
	}
	if t.Hi < t.Lo || t.Hi-t.Lo > maxTraceEntries {
		return nil, fmt.Errorf("workload: trace span [%d,%d) is invalid or too large", t.Lo, t.Hi)
	}
	t.Entries = make([]Entry, 0, t.Hi-t.Lo)
	for {
		line, err := br.ReadString('\n')
		if line == "" && err == io.EOF {
			break
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("workload: trace entries: %w", err)
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			return nil, fmt.Errorf("workload: trace entry %q: want \"index arrivalNs steps\"", strings.TrimSpace(line))
		}
		var e Entry
		if e.Index, err = strconv.Atoi(fs[0]); err != nil {
			return nil, fmt.Errorf("workload: trace entry index %q: %v", fs[0], err)
		}
		if e.ArrivalNs, err = strconv.ParseInt(fs[1], 10, 64); err != nil {
			return nil, fmt.Errorf("workload: trace entry arrival %q: %v", fs[1], err)
		}
		if e.Steps, err = strconv.ParseInt(fs[2], 10, 64); err != nil {
			return nil, fmt.Errorf("workload: trace entry steps %q: %v", fs[2], err)
		}
		t.Entries = append(t.Entries, e)
		if len(t.Entries) > t.Hi-t.Lo {
			break // validate reports the count mismatch with a precise error
		}
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Merge folds shard slices of one recording into the full trace. It
// demands identical headers (spec, seed, trials) and a complete,
// non-overlapping tiling of [0, trials); input order is irrelevant —
// slices are sorted by span, exactly like the shard-artifact merge in
// cmd/modcon-bench. The merged trace encodes byte-for-byte as the trace
// an unsharded recording writes.
func Merge(parts ...*Trace) (*Trace, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("workload: no traces to merge")
	}
	sorted := append([]*Trace(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Lo != sorted[j].Lo {
			return sorted[i].Lo < sorted[j].Lo
		}
		return sorted[i].Hi < sorted[j].Hi
	})
	first := sorted[0]
	out := &Trace{Spec: first.Spec, Seed: first.Seed, Trials: first.Trials,
		Lo: 0, Hi: first.Trials, Entries: make([]Entry, 0, first.Trials)}
	at := 0
	for _, p := range sorted {
		if err := p.validate(); err != nil {
			return nil, err
		}
		if p.Spec != first.Spec || p.Seed != first.Seed || p.Trials != first.Trials {
			return nil, fmt.Errorf("workload: trace slice [%d,%d) is from a different run (spec/seed/trials mismatch)", p.Lo, p.Hi)
		}
		if p.Lo != at {
			return nil, fmt.Errorf("workload: trace slices do not tile: want a slice starting at %d, got [%d,%d)", at, p.Lo, p.Hi)
		}
		at = p.Hi
		out.Entries = append(out.Entries, p.Entries...)
	}
	if at != first.Trials {
		return nil, fmt.Errorf("workload: trace slices cover [0,%d) of %d trials", at, first.Trials)
	}
	if err := out.validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Demands returns the recorded per-trial service demands, in steps, for
// the trace's span.
func (t *Trace) Demands() []int64 {
	out := make([]int64, len(t.Entries))
	for i, e := range t.Entries {
		out[i] = e.Steps
	}
	return out
}

// Arrivals returns the recorded per-trial arrival times, in virtual ns,
// for the trace's span.
func (t *Trace) Arrivals() []int64 {
	out := make([]int64, len(t.Entries))
	for i, e := range t.Entries {
		out[i] = e.ArrivalNs
	}
	return out
}

// Serve re-runs the virtual-time service model over the recorded
// workload and returns its metrics — the saturation numbers an artifact
// consumer derives from the trace alone, with no re-execution. The trace
// must be complete (Lo = 0, Hi = Trials). Open-kind traces serve their
// recorded arrivals; closed-kind traces re-run the cohort model from the
// recorded demands and verify the reassigned issue times match the
// recording.
func (t *Trace) Serve() (*Served, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	if !t.Complete() {
		return nil, fmt.Errorf("workload: cannot serve partial trace [%d,%d) of %d trials (merge the slices first)", t.Lo, t.Hi, t.Trials)
	}
	spec, err := t.ParseSpec()
	if err != nil {
		return nil, err
	}
	var arrivals []int64
	if spec.Open() {
		arrivals = t.Arrivals()
	}
	served, err := spec.Serve(arrivals, t.Demands())
	if err != nil {
		return nil, err
	}
	if !spec.Open() {
		for i, e := range t.Entries {
			if served.Arrivals[i] != e.ArrivalNs {
				return nil, fmt.Errorf("workload: trace issue time diverged at trial %d: recorded %d, model assigns %d", e.Index, e.ArrivalNs, served.Arrivals[i])
			}
		}
	}
	return served, nil
}

// Verify checks a replay against the recording: demands[k] is the
// re-executed service demand of global trial lo+k for the trace's own
// span. Any divergence is reported with the first differing trial — the
// teeth of the bit-identical-replay contract.
func (t *Trace) Verify(demands []int64) error {
	if len(demands) != len(t.Entries) {
		return fmt.Errorf("workload: replay produced %d demands for %d recorded trials", len(demands), len(t.Entries))
	}
	for k, e := range t.Entries {
		if demands[k] != e.Steps {
			return fmt.Errorf("workload: replay diverged at trial %d: recorded %d steps, re-executed %d", e.Index, e.Steps, demands[k])
		}
	}
	return nil
}
