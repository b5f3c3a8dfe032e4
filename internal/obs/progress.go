package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Snapshot is one progress observation of a running sweep, emitted to a Sink
// by a Reporter. Rate and ETA are derived from Done/Total/Elapsed at emission
// time.
type Snapshot struct {
	// Done is the number of trials merged so far.
	Done int `json:"done"`
	// Total is the number of trials the sweep will run.
	Total int `json:"total"`
	// Violations counts safety violations classified so far (resilient
	// engine only; always 0 under the plain engine).
	Violations int `json:"violations"`
	// Steps is the total step/op count folded from merged trials.
	Steps int64 `json:"steps"`
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration `json:"elapsedNs"`
	// Rate is the merge throughput in trials per second.
	Rate float64 `json:"trialsPerSec"`
	// ETA estimates the remaining wall-clock time from Rate; zero when the
	// rate is not yet measurable.
	ETA time.Duration `json:"etaNs"`
	// Final marks the last snapshot of a sweep (Done == Total, or the sweep
	// stopped early).
	Final bool `json:"final"`
}

// Sink consumes progress snapshots. A Reporter never calls its sink
// concurrently, but successive calls may come from different goroutines:
// the harness reports from its sweep's worker goroutines, one folded trial
// at a time, and the final snapshot from the caller's.
type Sink interface {
	Emit(Snapshot)
}

// textSink renders one human-readable line per snapshot.
type textSink struct{ w io.Writer }

// Text returns a Sink that writes one human-readable progress line per
// snapshot, e.g.
//
//	trials 620/1000 (62.0%)  41.3/s  eta 9s  violations 0
func Text(w io.Writer) Sink { return textSink{w: w} }

func (s textSink) Emit(p Snapshot) {
	pct := 0.0
	if p.Total > 0 {
		pct = 100 * float64(p.Done) / float64(p.Total)
	}
	eta := "-"
	if p.ETA > 0 {
		eta = p.ETA.Round(time.Second).String()
	}
	tag := ""
	if p.Final {
		tag = "  done"
	}
	fmt.Fprintf(s.w, "trials %d/%d (%.1f%%)  %.1f/s  eta %s  violations %d%s\n",
		p.Done, p.Total, pct, p.Rate, eta, p.Violations, tag)
}

// jsonSink emits one JSON object per line per snapshot.
type jsonSink struct{ w io.Writer }

// JSONLines returns a Sink that writes each snapshot as a single JSON object
// on its own line (JSON Lines), suitable for machine consumption.
func JSONLines(w io.Writer) Sink { return jsonSink{w: w} }

func (s jsonSink) Emit(p Snapshot) {
	b, err := json.Marshal(p)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.w.Write(b)
}

// discardSink drops every snapshot.
type discardSink struct{}

// Discard returns a Sink that drops every snapshot — the silent option for
// callers that want reporter plumbing without output.
func Discard() Sink { return discardSink{} }

func (discardSink) Emit(Snapshot) {}

// Reporter throttles progress observations to a Sink: at most one emission
// per Interval, plus always the final observation. A Reporter derives Rate
// and ETA from the observation stream, so callers only feed it raw counts.
//
// Reporter is safe for concurrent use; the harness calls Observe one folded
// trial at a time, in trial order, from its sweep's worker goroutines, and
// public callers may share one across sweeps.
type Reporter struct {
	mu       sync.Mutex
	sink     Sink
	interval time.Duration
	last     time.Time
	emitted  bool
}

// NewReporter returns a Reporter that forwards at most one snapshot per
// interval to sink, plus the final snapshot of every sweep. A non-positive
// interval emits every observation. A nil sink discards everything.
func NewReporter(sink Sink, interval time.Duration) *Reporter {
	if sink == nil {
		sink = Discard()
	}
	return &Reporter{sink: sink, interval: interval}
}

// Observe feeds one progress observation. It is throttled: forwarded to the
// sink only if the interval has elapsed since the last emission, or if final
// is set (a final observation is never dropped).
func (r *Reporter) Observe(done, total, violations int, steps int64, elapsed time.Duration, final bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if !final && r.emitted && r.interval > 0 && now.Sub(r.last) < r.interval {
		return
	}
	r.last = now
	r.emitted = true

	snap := Snapshot{
		Done: done, Total: total, Violations: violations,
		Steps: steps, Elapsed: elapsed, Final: final,
	}
	if sec := elapsed.Seconds(); sec > 0 && done > 0 {
		snap.Rate = float64(done) / sec
		if remaining := total - done; remaining > 0 {
			snap.ETA = time.Duration(float64(remaining) / snap.Rate * float64(time.Second))
		}
	}
	r.sink.Emit(snap)
}
