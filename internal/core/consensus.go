package core

import (
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// Builder constructs the index-th member of an object family (a fresh
// conciliator Cᵢ or ratifier Rᵢ), allocating its registers in file. Indices
// follow the paper's numbering: the fast-path ratifiers are R₋₁ and R₀,
// stage objects are C₁,R₁,C₂,R₂,…
type Builder func(file *register.File, index int) Object

// Options configures a consensus protocol assembled from conciliators and
// ratifiers (§4).
type Options struct {
	// N is the number of processes.
	N int
	// File receives all register allocations.
	File *register.File
	// NewRatifier builds Rᵢ. Required.
	NewRatifier Builder
	// NewConciliator builds Cᵢ. Nil yields the ratifier-only protocol R of
	// §4.2, which terminates only under scheduling restrictions (noisy or
	// priority schedulers).
	NewConciliator Builder
	// Stages is the number of (Cᵢ; Rᵢ) pairs — the truncation point k of
	// the bounded construction (§4.1.2). Each conciliator fails to produce
	// agreement with probability at most 1-δ, so Pr[running off the end]
	// ≤ (1-δ)^Stages; DefaultStages makes that negligible for the paper's
	// worst-case δ ≈ 0.055.
	Stages int
	// FastPath prepends the prefix R₋₁; R₀ so that executions whose fastest
	// processes agree decide without touching a conciliator (§4.1.1).
	FastPath bool
	// Fallback, if non-nil, is appended after the last stage: any
	// bounded-space consensus object K (§4.1.2). With a fallback the
	// protocol is a full consensus object regardless of Stages.
	Fallback Object
}

// DefaultStages is the truncation point used when Options.Stages is zero and
// a conciliator family is present: with the worst-case δ from Theorem 7,
// (1-δ)^512 < 10⁻¹², far below anything observable in experiments.
const DefaultStages = 512

// Protocol is an assembled consensus protocol: a Composition plus
// per-process instrumentation recording where each process decided.
type Protocol struct {
	chain       *Composition
	n           int
	fastPath    bool
	hasFallback bool
	perStage    int // chain objects per stage (1 or 2)
	decidedAt   []int32
}

// NewProtocol validates opts and builds the protocol.
func NewProtocol(opts Options) (*Protocol, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("core: N=%d must be positive", opts.N)
	}
	if opts.File == nil {
		return nil, errors.New("core: nil register file")
	}
	if opts.NewRatifier == nil {
		return nil, errors.New("core: NewRatifier is required")
	}
	if opts.Stages < 0 {
		return nil, fmt.Errorf("core: Stages=%d must be non-negative", opts.Stages)
	}
	stages := opts.Stages
	if stages == 0 && opts.NewConciliator != nil {
		stages = DefaultStages
	}
	if !opts.FastPath && stages == 0 && opts.Fallback == nil {
		return nil, errors.New("core: protocol has no objects (enable FastPath, Stages, or Fallback)")
	}

	// At most R₋₁, R₀, two objects per stage and the fallback.
	objs := make([]Object, 0, 2*stages+3)
	if opts.FastPath {
		objs = append(objs, opts.NewRatifier(opts.File, -1), opts.NewRatifier(opts.File, 0))
	}
	for i := 1; i <= stages; i++ {
		if opts.NewConciliator != nil {
			objs = append(objs, opts.NewConciliator(opts.File, i))
		}
		objs = append(objs, opts.NewRatifier(opts.File, i))
	}
	if opts.Fallback != nil {
		objs = append(objs, opts.Fallback)
	}

	perStage := 1
	if opts.NewConciliator != nil {
		perStage = 2
	}
	p := &Protocol{
		// Each Builder call's object is one member, as StageOfIndex counts
		// them, so the chain takes objs as it is.
		chain:       &Composition{objs: objs},
		n:           opts.N,
		fastPath:    opts.FastPath,
		hasFallback: opts.Fallback != nil,
		perStage:    perStage,
		decidedAt:   make([]int32, opts.N),
	}
	for i := range p.decidedAt {
		p.decidedAt[i] = -1
	}
	return p, nil
}

// Run executes the protocol for the calling process with the given input
// and returns its decision. ok is false only if the chain was exhausted
// without deciding — impossible with a fallback, and an event of probability
// ≤ (1-δ)^Stages otherwise; callers must treat it as non-termination, never
// as a decision.
//
// Every call records where the calling process decided (-1 when ok is
// false), readable through DecidedIndex/DecidedStage until that process's
// next Run. A process that never returns from Run (crashed, cancelled)
// keeps its previous record, so callers that replay one protocol across
// trials snapshot DecidedIndex right after Run returns.
func (p *Protocol) Run(e Env, input value.Value) (out value.Value, ok bool) {
	d, idx := p.chain.InvokeIndexed(e, input)
	p.decidedAt[e.PID()] = int32(idx)
	return d.V, d.Decided
}

// Object exposes the underlying composition (itself a deciding object), so
// protocols can be nested inside larger compositions.
func (p *Protocol) Object() Object { return p.chain }

// Len returns the number of chained objects.
func (p *Protocol) Len() int { return p.chain.Len() }

// DecidedIndex returns the chain index at which pid decided, or -1.
func (p *Protocol) DecidedIndex(pid int) int { return int(p.decidedAt[pid]) }

// DecidedStage translates pid's deciding chain index into the paper's stage
// numbering: 0 for the fast path, i ≥ 1 for stage (Cᵢ; Rᵢ), -1 if pid has
// not decided. ok distinguishes the fallback object.
func (p *Protocol) DecidedStage(pid int) (stage int, fallback bool) {
	return p.StageOfIndex(p.DecidedIndex(pid))
}

// StageOfIndex translates a deciding chain index (as returned by
// DecidedIndex) into the paper's stage numbering: 0 for the fast path, i ≥ 1
// for stage (Cᵢ; Rᵢ), -1 for an undecided index (< 0). fallback
// distinguishes a decision by the fallback object. The translation depends
// only on the protocol's shape, so it is safe to call concurrently with
// runs.
func (p *Protocol) StageOfIndex(idx int) (stage int, fallback bool) {
	if idx < 0 {
		return -1, false
	}
	if p.hasFallback && idx == p.chain.Len()-1 {
		return -1, true
	}
	if p.fastPath {
		if idx < 2 {
			return 0, false
		}
		idx -= 2
	}
	return idx/p.perStage + 1, false
}
