package workload

// The virtual-time service model and the saturation math on top of it.
//
// Latency and throughput here are *virtual*, not wall-clock: each trial's
// measured simulated step count, scaled by the spec's per-step duration,
// is the trial's service demand, and a FIFO multi-server queue serves the
// demands against the arrival schedule. Everything is integer-nanosecond
// arithmetic over deterministic inputs, so a saturation report is
// bit-identical at any worker or shard count — the same contract the trial
// engine keeps for aggregates, extended to time. The model is first-order
// by design (consensus instances are independently served jobs, and no
// benchmark here measures real cross-instance memory contention), and
// EXPERIMENTS.md documents the caveat next to the curves.

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/obs"
)

// Metrics is the aggregate outcome of serving one workload in virtual
// time.
type Metrics struct {
	// Trials is the number of served operations.
	Trials int `json:"trials"`
	// Servers is the virtual server count the model ran with.
	Servers int `json:"servers"`
	// StepNs is the virtual duration of one simulated step, in ns.
	StepNs int64 `json:"stepNs"`
	// OfferedPerSec is the spec's nominal offered load (see
	// Spec.OfferedRate); 0 for closed workloads.
	OfferedPerSec float64 `json:"offeredPerSec"`
	// AchievedPerSec is the measured virtual throughput: trials divided by
	// the makespan. At low load it tracks OfferedPerSec; past saturation
	// it plateaus at the service capacity.
	AchievedPerSec float64 `json:"achievedPerSec"`
	// MakespanNs is the last completion time, in virtual ns.
	MakespanNs int64 `json:"makespanNs"`
	// LatencyUs is the per-operation latency distribution
	// (completion − arrival) in whole microseconds, an exact-merge
	// streaming histogram.
	LatencyUs *obs.Hist `json:"latencyUs"`
}

// Served is the full per-operation outcome of one service-model run.
type Served struct {
	// Arrivals holds each operation's arrival (closed: issue) time, ns.
	Arrivals []int64
	// Completions holds each operation's completion time, ns.
	Completions []int64
	// Metrics aggregates the run.
	Metrics *Metrics
}

// minHeap is a tiny int64 min-heap (server free times, client issue
// times); values are packed by the caller when a tie-break key is needed.
type minHeap []int64

func (h minHeap) down(i int) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// replaceMin overwrites the minimum with v and restores heap order.
func (h minHeap) replaceMin(v int64) {
	h[0] = v
	h.down(0)
}

// clientHeap orders a closed cohort's clients by (next issue time, id):
// the id tie-break makes the event order — and with it every assigned
// issue time — fully deterministic.
type clientHeap struct {
	t  []int64
	id []int32
}

// newClientHeap returns a heap of n clients all ready to issue at t=0.
// Ids 0..n-1 in slice order form a valid heap already.
func newClientHeap(n int) *clientHeap {
	h := &clientHeap{t: make([]int64, n), id: make([]int32, n)}
	for i := range h.id {
		h.id[i] = int32(i)
	}
	return h
}

func (h *clientHeap) less(i, j int) bool {
	return h.t[i] < h.t[j] || (h.t[i] == h.t[j] && h.id[i] < h.id[j])
}

func (h *clientHeap) swap(i, j int) {
	h.t[i], h.t[j] = h.t[j], h.t[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}

// replaceMin re-times the minimum client to v and restores heap order.
func (h *clientHeap) replaceMin(v int64) {
	h.t[0] = v
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h.t) && h.less(l, m) {
			m = l
		}
		if r < len(h.t) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// Serve runs the virtual-time service model: demands[i] is trial i's
// measured simulated step count, scaled to virtual time by the spec's
// per-step duration and served FIFO by the spec's virtual servers. For
// open specs arrivals must hold one non-decreasing arrival time per
// demand (from Schedule, or a recorded trace); for closed specs arrivals
// must be nil — issue times are assigned by the cohort model, each client
// keeping one operation outstanding and pausing Think between them. The
// result is a pure function of (spec, arrivals, demands).
func (s *Spec) Serve(arrivals, demands []int64) (*Served, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Open() {
		if len(arrivals) != len(demands) {
			return nil, fmt.Errorf("workload: %d arrivals for %d demands", len(arrivals), len(demands))
		}
	} else if arrivals != nil {
		return nil, fmt.Errorf("workload: closed specs assign their own issue times; arrivals must be nil")
	}
	stepNs := int64(s.step())
	for i, d := range demands {
		if d < 0 {
			return nil, fmt.Errorf("workload: demand %d is negative (%d steps)", i, d)
		}
	}

	n := len(demands)
	served := &Served{
		Arrivals:    make([]int64, n),
		Completions: make([]int64, n),
	}
	servers := make(minHeap, s.servers())

	if s.Open() {
		prev := int64(0)
		for i, at := range arrivals {
			if at < prev {
				return nil, fmt.Errorf("workload: arrivals not sorted at index %d", i)
			}
			prev = at
			start := at
			if free := servers[0]; free > start {
				start = free
			}
			done := start + demands[i]*stepNs
			servers.replaceMin(done)
			served.Arrivals[i] = at
			served.Completions[i] = done
		}
	} else {
		// Cohort model: clients issue in (nextIssue, clientID) order —
		// the id breaks ties so the event order is fully deterministic —
		// and each completed operation schedules the client's next issue
		// Think later.
		think := int64(s.Think)
		clients := newClientHeap(s.Clients)
		for i := 0; i < n; i++ {
			issue := clients.t[0]
			start := issue
			if free := servers[0]; free > start {
				start = free
			}
			done := start + demands[i]*stepNs
			servers.replaceMin(done)
			clients.replaceMin(done + think)
			served.Arrivals[i] = issue
			served.Completions[i] = done
		}
	}

	m := &Metrics{
		Trials:        n,
		Servers:       s.servers(),
		StepNs:        stepNs,
		OfferedPerSec: s.OfferedRate(),
		LatencyUs:     &obs.Hist{},
	}
	for i := 0; i < n; i++ {
		if c := served.Completions[i]; c > m.MakespanNs {
			m.MakespanNs = c
		}
		m.LatencyUs.Add((served.Completions[i] - served.Arrivals[i]) / 1000)
	}
	if m.MakespanNs > 0 {
		m.AchievedPerSec = float64(n) * 1e9 / float64(m.MakespanNs)
	}
	served.Metrics = m
	return served, nil
}

// DefaultKneeFraction is the efficiency threshold Knee uses when callers
// pass 0: a load point still served at ≥ 95% of its offered rate is
// considered below the knee.
const DefaultKneeFraction = 0.95

// Knee locates the saturation knee on an offered-load ladder: the index
// of the highest offered rate whose achieved throughput is at least
// frac × offered (frac = 0 means DefaultKneeFraction), or -1 when even
// the lowest point is saturated. The ladder must be sorted by offered
// rate; points are typically Metrics.OfferedPerSec/AchievedPerSec pairs
// from one Serve call per rate.
func Knee(offered, achieved []float64, frac float64) int {
	if frac <= 0 {
		frac = DefaultKneeFraction
	}
	knee := -1
	for i := range offered {
		if i < len(achieved) && offered[i] > 0 && achieved[i] >= frac*offered[i] {
			knee = i
		}
	}
	return knee
}
