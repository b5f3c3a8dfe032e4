// Package recipe assembles the paper's consensus protocol (§4) from its
// parts: the fast-path ratifiers R₋₁; R₀, then stages (Cᵢ; Rᵢ) of a §5
// conciliator and a §6 ratifier, then optionally the bounded-space fallback
// K. A Spec names the choices; Build allocates the protocol's registers and
// chains its objects with core.NewProtocol.
//
// The root Consensus, the experiments, multi-slot sequences, set agreement,
// test-and-set and modcon-bench all build their protocols here, with Specs
// that differ only in their fields. Equal Specs built into equal files give
// byte-identical register layouts.
package recipe

import (
	"errors"
	"fmt"

	"github.com/modular-consensus/modcon/internal/conciliator"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/fallback"
	"github.com/modular-consensus/modcon/internal/ratifier"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sharedcoin"
)

// Scheme selects the quorum system of the protocol's ratifiers (§6.2).
type Scheme int

// The ratifier schemes; the root package's RatifierScheme documents each.
const (
	SchemeAuto      Scheme = iota // Binary for m = 2, Pool otherwise (ratifier.NewAuto)
	SchemeBinary                  // the 3-register binary ratifier, m = 2 only
	SchemePool                    // Bollobás-optimal: lg m + Θ(log log m) registers
	SchemeBitVector               // 2⌈lg m⌉+1 registers
	SchemeCollect                 // cheap-collect: 4 ops with cheap collects
)

// Conciliator selects the protocol's conciliator family (§5).
type Conciliator int

// The conciliator families; the root package's ConciliatorKind documents
// each.
const (
	ConciliatorImpatient    Conciliator = iota // Theorem 7: O(log n) individual work
	ConciliatorConstantRate                    // fixed 1/n write probability: Θ(n) individual work
	ConciliatorSharedCoin                      // voting weak shared coins (§5.1), m = 2 only
	ConciliatorNone                            // the ratifier-only protocol R of §4.2
)

// Spec is one assembly of the protocol for N processes over inputs
// {0, …, M-1}. The zero values of Scheme and Conciliator are the paper's
// recommendation; FastPath is off in the zero Spec.
type Spec struct {
	// N is the process count and M the value-domain size.
	N, M int
	// Scheme selects the ratifiers' quorum system. Values outside the
	// named constants act as SchemeAuto.
	Scheme Scheme
	// Conciliator selects the conciliator family. Values outside the named
	// constants act as ConciliatorImpatient.
	Conciliator Conciliator
	// FastPath prepends R₋₁; R₀ (§4.1.1).
	FastPath bool
	// Stages truncates the chain after that many (Cᵢ; Rᵢ) stages (§4.1.2);
	// 0 means core.DefaultStages when a conciliator family is present.
	Stages int
	// Fallback appends the bounded-space CIL consensus K after the last
	// stage, making the protocol a consensus object for any Stages value.
	Fallback bool
	// DetectWrites lets impatient and constant-rate conciliators return
	// immediately after a probabilistic write they observe to succeed
	// (footnote 2 ablation).
	DetectWrites bool
	// CoinThreshold overrides the voting shared coin's total-vote threshold
	// (0 keeps the default n²); only ConciliatorSharedCoin reads it.
	CoinThreshold int
	// Base offsets every object's index, so protocols sharing one register
	// file keep distinct labels: the objects of stage i (R₋₁ and R₀ for
	// i = -1, 0) get index Base+i, and the fallback gets Base.
	Base int
}

// Validate reports the first reason Build would reject s. Its errors carry
// no package prefix; callers add their own.
func (s Spec) Validate() error {
	switch {
	case s.N <= 0:
		return fmt.Errorf("n=%d must be positive", s.N)
	case s.M < 2:
		return fmt.Errorf("m=%d must be at least 2", s.M)
	case s.Scheme == SchemeBinary && s.M != 2:
		return fmt.Errorf("binary scheme supports m=2, got m=%d", s.M)
	case s.Conciliator == ConciliatorSharedCoin && s.M != 2:
		return fmt.Errorf("shared-coin conciliators support m=2, got m=%d", s.M)
	case s.Stages < 0:
		return fmt.Errorf("stages=%d must be non-negative", s.Stages)
	case s.Conciliator == ConciliatorNone && !s.Fallback && s.Stages == 0:
		return errors.New("ratifier-only protocol needs explicit Stages or Fallback")
	}
	return nil
}

// Build validates s and allocates the protocol in file. The fallback's
// registers come first, then each object's in chain order. A Spec that
// Validate accepts always builds.
func (s Spec) Build(file *register.File) (*core.Protocol, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opts := core.Options{
		N:              s.N,
		File:           file,
		NewRatifier:    s.ratifier,
		NewConciliator: s.conciliator(),
		Stages:         s.Stages,
		FastPath:       s.FastPath,
	}
	if s.Fallback {
		opts.Fallback = fallback.New(file, s.N, s.Base)
	}
	return core.NewProtocol(opts)
}

// ratifier builds the ratifier of stage i.
func (s Spec) ratifier(f *register.File, i int) core.Object {
	i += s.Base
	switch s.Scheme {
	case SchemeBinary:
		return ratifier.NewBinary(f, i)
	case SchemePool:
		return ratifier.NewPool(f, s.M, i)
	case SchemeBitVector:
		return ratifier.NewBitVector(f, s.M, i)
	case SchemeCollect:
		return ratifier.NewCollect(f, s.N, i)
	default:
		return ratifier.NewAuto(f, s.M, i)
	}
}

// conciliator returns the builder of stage i's conciliator, or nil for the
// ratifier-only protocol.
func (s Spec) conciliator() core.Builder {
	switch s.Conciliator {
	case ConciliatorNone:
		return nil
	case ConciliatorSharedCoin:
		return func(f *register.File, i int) core.Object {
			i += s.Base
			coin := sharedcoin.NewVoting(f, s.N, i)
			if s.CoinThreshold > 0 {
				coin.Threshold = s.CoinThreshold
			}
			return conciliator.NewFromCoin(f, coin, i)
		}
	default:
		return func(f *register.File, i int) core.Object {
			c := conciliator.NewImpatient(f, s.N, s.Base+i)
			if s.Conciliator == ConciliatorConstantRate {
				c.Growth = conciliator.GrowthConstant
			}
			c.DetectSuccess = s.DetectWrites
			return c
		}
	}
}
