package stats

// Accumulators for streaming per-trial metrics out of parallel sweeps.
//
// The trial engine (internal/harness) folds results one trial at a time, in
// trial order, under one lock, so feeding these accumulators from a merge
// callback is race-free and — because addition happens in a fixed sequence —
// yields bit-identical aggregates at any worker count.

// Acc accumulates a sample of float64 observations for Summary. The full
// sample is retained (the Summary quantiles need it); Add order determines
// the internal layout, so deterministic feeding gives deterministic output.
type Acc struct {
	xs []float64
}

// Add appends one observation.
func (a *Acc) Add(x float64) { a.xs = append(a.xs, x) }

// AddInt appends one integer observation.
func (a *Acc) AddInt(x int) { a.xs = append(a.xs, float64(x)) }

// N reports the number of observations.
func (a *Acc) N() int { return len(a.xs) }

// Merge appends all of b's observations, in b's order.
func (a *Acc) Merge(b *Acc) { a.xs = append(a.xs, b.xs...) }

// Values returns the accumulated sample (not a copy; callers fitting shapes
// may read it directly).
func (a *Acc) Values() []float64 { return a.xs }

// Mean returns the sample mean (0 for an empty accumulator, so partial
// sweeps can still be reported).
func (a *Acc) Mean() float64 {
	if len(a.xs) == 0 {
		return 0
	}
	return mean(a.xs)
}

// Max returns the sample maximum (0 for an empty accumulator).
func (a *Acc) Max() float64 {
	m := 0.0
	for i, x := range a.xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Summary summarizes the accumulated sample; like Summarize it panics on an
// empty accumulator.
func (a *Acc) Summary() Summary { return Summarize(a.xs) }

// Tally counts successes over trials for a binomial estimate.
type Tally struct {
	Successes, Trials int
}

// Add records one trial.
func (t *Tally) Add(ok bool) {
	t.Trials++
	if ok {
		t.Successes++
	}
}

// Merge folds another tally in.
func (t *Tally) Merge(o Tally) {
	t.Successes += o.Successes
	t.Trials += o.Trials
}

// Proportion returns the Wilson 95% interval of the tally; like
// NewProportion it panics when no trials were recorded.
func (t Tally) Proportion() Proportion { return NewProportion(t.Successes, t.Trials) }
