package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// recordOpen builds a small open-loop trace for the tests.
func recordOpen(t *testing.T, trials int) (*Spec, *Trace) {
	t.Helper()
	spec := mustParse(t, "poisson:rate=100000")
	arrivals, err := spec.Schedule(21, trials)
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]int64, trials)
	for i := range demands {
		demands[i] = int64(200 + i%31)
	}
	tr, err := Record(spec, 21, trials, 0, trials, arrivals, demands)
	if err != nil {
		t.Fatal(err)
	}
	return spec, tr
}

// TestTraceEncodeDecodeRoundTrip: encode → decode reproduces the exact
// struct, and re-encoding reproduces the exact bytes.
func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	_, tr := recordOpen(t, 64)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	if !strings.HasPrefix(first, "tracev1 spec=poisson:rate=100000 seed=21 trials=64 lo=0 hi=64\n") {
		t.Fatalf("unexpected header: %q", strings.SplitN(first, "\n", 2)[0])
	}
	back, err := Decode(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatal("decode did not reproduce the trace")
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatal("re-encode is not byte-identical")
	}
}

// TestTraceMergeMatchesUnsharded: slicing a recording into shard traces
// and merging them reproduces, byte for byte, the unsharded trace.
func TestTraceMergeMatchesUnsharded(t *testing.T) {
	spec, full := recordOpen(t, 100)
	arrivals, demands := full.Arrivals(), full.Demands()
	var parts []*Trace
	const shards = 4
	for i := 0; i < shards; i++ {
		lo, hi := i*100/shards, (i+1)*100/shards
		p, err := Record(spec, 21, 100, lo, hi, arrivals[lo:hi], demands[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	// Merge in scrambled order: order must not matter.
	merged, err := Merge(parts[2], parts[0], parts[3], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := full.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("merged trace differs from the unsharded recording")
	}
}

// TestTraceMergeRejects: gaps, overlaps, and mixed runs are refused.
func TestTraceMergeRejects(t *testing.T) {
	spec, full := recordOpen(t, 40)
	arr, dem := full.Arrivals(), full.Demands()
	slice := func(lo, hi int) *Trace {
		p, err := Record(spec, 21, 40, lo, hi, arr[lo:hi], dem[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := Merge(slice(0, 20)); err == nil {
		t.Fatal("incomplete tiling accepted")
	}
	if _, err := Merge(slice(0, 20), slice(25, 40)); err == nil {
		t.Fatal("gapped tiling accepted")
	}
	if _, err := Merge(slice(0, 25), slice(20, 40)); err == nil {
		t.Fatal("overlapping tiling accepted")
	}
	other := slice(20, 40)
	other.Seed = 99
	if _, err := Merge(slice(0, 20), other); err == nil {
		t.Fatal("mixed-run merge accepted")
	}
	if _, err := Merge(); err == nil {
		t.Fatal("empty merge accepted")
	}
}

// TestTraceVerify: matching demands pass, any divergence is pinpointed.
func TestTraceVerify(t *testing.T) {
	_, tr := recordOpen(t, 16)
	dem := tr.Demands()
	if err := tr.Verify(dem); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	dem[7]++
	err := tr.Verify(dem)
	if err == nil || !strings.Contains(err.Error(), "trial 7") {
		t.Fatalf("divergence at trial 7 reported as %v", err)
	}
	if err := tr.Verify(dem[:10]); err == nil {
		t.Fatal("short replay accepted")
	}
}

// TestTraceServe: a complete trace serves to the same metrics the spec
// computes directly; partial traces are refused.
func TestTraceServe(t *testing.T) {
	spec, tr := recordOpen(t, 80)
	fromTrace, err := tr.Serve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := spec.Serve(tr.Arrivals(), tr.Demands())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromTrace, direct) {
		t.Fatal("trace-served metrics differ from direct serve")
	}
	part, err := Record(spec, 21, 80, 0, 40, tr.Arrivals()[:40], tr.Demands()[:40])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.Serve(); err == nil {
		t.Fatal("partial trace served")
	}
}

// TestTraceServeClosed: a closed-kind trace re-runs the cohort model and
// cross-checks the recorded issue times.
func TestTraceServeClosed(t *testing.T) {
	spec := mustParse(t, "closed:clients=3,think=5µs")
	demands := []int64{9, 4, 7, 2, 8, 1}
	served, err := spec.Serve(nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(spec, 4, len(demands), 0, len(demands), served.Arrivals, demands)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tr.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Metrics, served.Metrics) {
		t.Fatal("closed trace re-serve diverged")
	}
	// Corrupt a recorded issue time: Serve must detect the divergence
	// (shift the last entry so the arrival sequence stays sorted).
	tr.Entries[len(tr.Entries)-1].ArrivalNs++
	if _, err := tr.Serve(); err == nil {
		t.Fatal("corrupted issue time not detected")
	}
}

// TestRecordedArrivals: an open spec records its schedule's slice whatever
// the demands, and a closed cohort the service model's issue times, which
// wait for the demands.
func TestRecordedArrivals(t *testing.T) {
	open := mustParse(t, "poisson:rate=100000")
	sched, err := open.Schedule(21, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, demands := range [][]int64{nil, make([]int64, 16)} {
		got, err := open.RecordedArrivals(21, 64, 16, 32, demands)
		if err != nil || !reflect.DeepEqual(got, sched[16:32]) {
			t.Fatalf("open, demands %v: %v, %v; want the schedule's slice %v", demands, got, err, sched[16:32])
		}
	}
	closed := mustParse(t, "closed:clients=3,think=5µs")
	demands := []int64{9, 4, 7, 2, 8, 1}
	if got, err := closed.RecordedArrivals(4, len(demands), 0, len(demands), nil); got != nil || err != nil {
		t.Fatalf("closed before the run: %v, %v; want nil, nil", got, err)
	}
	served, err := closed.Serve(nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	got, err := closed.RecordedArrivals(4, len(demands), 0, len(demands), demands)
	if err != nil || !reflect.DeepEqual(got, served.Arrivals) {
		t.Fatalf("closed: %v, %v; want the service model's %v", got, err, served.Arrivals)
	}
}

// TestDecodeRejects: malformed headers and bodies fail cleanly.
func TestDecodeRejects(t *testing.T) {
	cases := []string{
		"",
		"tracev2 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n0 0 1\n",
		"tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0\n",                    // missing hi
		"tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n",               // missing entry
		"tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n0 0 1\n1 1 1\n", // extra entry
		"tracev1 spec=poisson:rate=1 seed=1 trials=2 lo=0 hi=2\n0 5 1\n1 3 1\n", // unsorted arrivals
		"tracev1 spec=poisson:rate=1 seed=1 trials=2 lo=0 hi=2\n0 0 1\n2 1 1\n", // index gap
		"tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n0 0 -4\n",       // negative demand
		"tracev1 spec=poisson:rate=0 seed=1 trials=1 lo=0 hi=1\n0 0 1\n",        // invalid spec
		"tracev1 spec=poisson:rate=1.00 seed=1 trials=1 lo=0 hi=1\n0 0 1\n",     // non-canonical spec
		"tracev1 spec=poisson:rate=1 seed=1 seed=2 trials=1 lo=0 hi=1\n0 0 1\n", // duplicate field
		"tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1 x=1\n0 0 1\n",    // unknown field
		"tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=0 hi=1\n0 zero 1\n",     // bad entry
		"tracev1 spec=poisson:rate=1 seed=1 trials=1 lo=2 hi=1\n",               // inverted span
	}
	for _, in := range cases {
		if tr, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("Decode accepted %q as %+v", in, tr)
		}
	}
}
