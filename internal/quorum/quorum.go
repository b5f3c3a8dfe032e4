// Package quorum implements the write/read quorum systems that drive the
// paper's deterministic ratifier (§6).
//
// A scheme assigns every value v a write quorum W_v and read quorum R_v over
// a pool of binary registers such that
//
//	W_v ∩ R_u = ∅  if and only if  v = u     (condition of Theorem 8)
//
// so a process that has announced v (written W_v) is detected by any process
// reading R_u for u ≠ v, while a solo-value execution sees a clean read
// quorum and may decide.
//
// Three schemes from the paper are provided:
//
//   - Binary: 2 registers, W_v = {r_v}, R_v = {r_{¬v}} (§6.2 choice 1).
//   - Pool: the Bollobás-optimal scheme (§6.2 choice 2): a pool of k
//     registers with W_v a distinct ⌊k/2⌋-subset and R_v its complement.
//     Theorem 9 (Bollobás) shows m = C(k, ⌊k/2⌋) is the maximum number of
//     values any scheme with |W_v| + |R_v| = k can support, so the pool
//     size is lg m + Θ(log log m).
//   - BitVector: the simpler encoding (§6.2 choice 3): registers r[i][j]
//     for i < ⌈lg m⌉, j ∈ {0,1}; W_v = {r[i][v_i]}, R_v its complement.
//     2⌈lg m⌉ registers, within a constant of optimal.
package quorum

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/modular-consensus/modcon/internal/value"
	"github.com/modular-consensus/modcon/internal/xrand"
)

// Scheme maps values to write and read quorums over a register pool.
type Scheme interface {
	// M returns the number of supported values (inputs are 0..M-1).
	M() int
	// PoolSize returns the number of binary registers the scheme needs.
	PoolSize() int
	// WriteQuorum returns the pool indices of W_v, ascending. The result
	// may be shared between calls: callers must not modify it.
	WriteQuorum(v value.Value) []int
	// ReadQuorum returns the pool indices of R_v, ascending. The result
	// may be shared between calls: callers must not modify it.
	ReadQuorum(v value.Value) []int
	// Name identifies the scheme in reports.
	Name() string
}

// Binomial returns C(n, k). It panics if the result would overflow uint64,
// which cannot happen for the pool sizes this module uses (n ≤ 64 with
// k ≤ n/2 stays within range for n ≤ 61; pools that large would support
// ~10¹⁷ values).
func Binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-i))
		if hi != 0 {
			panic(fmt.Sprintf("quorum: Binomial(%d,%d) overflows uint64", n, k))
		}
		c = lo / uint64(i+1)
	}
	return c
}

// MinPoolSize returns the smallest k with C(k, ⌊k/2⌋) ≥ m: the pool size of
// the optimal scheme for m values. It is lg m + Θ(log log m).
func MinPoolSize(m int) int {
	if m < 1 {
		panic(fmt.Sprintf("quorum: m=%d must be positive", m))
	}
	for k := 0; ; k++ {
		if Binomial(k, k/2) >= uint64(m) {
			return k
		}
	}
}

// AppendWrite appends the pool indices of s's W_v to dst, ascending, and
// returns the extended slice. For a Pool or a BitVector it unranks straight
// into dst and allocates nothing while dst has room, so a caller can look
// quorums up into a buffer on its own stack; other schemes copy
// WriteQuorum's result.
func AppendWrite(dst []int, s Scheme, v value.Value) []int {
	switch s := s.(type) {
	case *Pool:
		return s.appendWrite(dst, v)
	case *BitVector:
		return s.appendQuorum(dst, v, 0)
	}
	return append(dst, s.WriteQuorum(v)...)
}

// AppendRead is AppendWrite for R_v.
func AppendRead(dst []int, s Scheme, v value.Value) []int {
	switch s := s.(type) {
	case *Pool:
		return s.appendRead(dst, v)
	case *BitVector:
		return s.appendQuorum(dst, v, 1)
	}
	return append(dst, s.ReadQuorum(v)...)
}

// checkValue validates an input of scheme s, which supports m values. It
// names s only when it panics: Name formats, and quorums are looked up on
// every ratifier invocation.
func checkValue(v value.Value, m int, s Scheme) int {
	if v.IsNone() || v < 0 || int64(v) >= int64(m) {
		panic(fmt.Sprintf("quorum: value %s out of range [0,%d) for scheme %s", v, m, s.Name()))
	}
	return int(v)
}

// Binary is the 2-value scheme: W_0={0}, R_0={1}, W_1={1}, R_1={0}.
type Binary struct{}

// M implements Scheme.
func (Binary) M() int { return 2 }

// PoolSize implements Scheme.
func (Binary) PoolSize() int { return 2 }

// binarySingletons[i] is {i}: W_i and R_{1-i}, returned by every call so
// that a ratifier's invocation allocates nothing.
var binarySingletons = [2][]int{{0}, {1}}

// WriteQuorum implements Scheme.
func (b Binary) WriteQuorum(v value.Value) []int {
	return binarySingletons[checkValue(v, 2, b)]
}

// ReadQuorum implements Scheme.
func (b Binary) ReadQuorum(v value.Value) []int {
	return binarySingletons[1-checkValue(v, 2, b)]
}

// Name implements Scheme.
func (Binary) Name() string { return "binary" }

// Pool is the Bollobás-optimal scheme: value v's write quorum is the v-th
// t-subset (t = ⌊k/2⌋) of the k-register pool in colexicographic order, and
// its read quorum is the complement.
type Pool struct {
	k, t, m int
	// binom[c*(t+1)+i] is C(c, i) for c ≤ k and i ≤ t: Pascal's triangle
	// up to the pool, which WriteQuorum reads instead of calling Binomial.
	// Every entry is at most C(k, t), so none overflows.
	binom []uint64
}

// NewPool returns the optimal scheme for m ≥ 1 values, using the smallest
// pool k with C(k, ⌊k/2⌋) ≥ m.
func NewPool(m int) *Pool {
	k := MinPoolSize(m)
	t := k / 2
	p := &Pool{k: k, t: t, m: m, binom: make([]uint64, (k+1)*(t+1))}
	for c := 0; c <= k; c++ {
		p.binom[c*(t+1)] = 1
		for i := 1; i <= t && i <= c; i++ {
			p.binom[c*(t+1)+i] = p.choose(c-1, i-1) + p.choose(c-1, i)
		}
	}
	return p
}

// choose returns C(c, i) from the table, for c ≤ k and i ≤ t.
func (p *Pool) choose(c, i int) uint64 { return p.binom[c*(p.t+1)+i] }

// M implements Scheme.
func (p *Pool) M() int { return p.m }

// PoolSize implements Scheme.
func (p *Pool) PoolSize() int { return p.k }

// WriteQuorum implements Scheme.
func (p *Pool) WriteQuorum(v value.Value) []int { return p.appendWrite(make([]int, 0, p.t), v) }

// ReadQuorum implements Scheme: the complement of the write quorum.
func (p *Pool) ReadQuorum(v value.Value) []int { return p.appendRead(make([]int, 0, p.k-p.t), v) }

// appendWrite unranks v in the combinatorial number system, where the colex
// rank of {c_1 < c_2 < … < c_t} is Σ C(c_i, i), and appends the t-subset to
// dst.
func (p *Pool) appendWrite(dst []int, v value.Value) []int {
	rank := uint64(checkValue(v, p.m, p))
	n := len(dst)
	dst = slices.Grow(dst, p.t)[:n+p.t]
	for i := p.t; i >= 1; i-- {
		// Largest c with C(c, i) ≤ rank.
		c := i - 1 // C(i-1, i) = 0 ≤ rank always
		for p.choose(c+1, i) <= rank {
			c++
		}
		dst[n+i-1] = c
		rank -= p.choose(c, i)
	}
	return dst
}

// appendRead appends the complement of v's write quorum to dst. dst grows
// by k: the write quorum is unranked into the last t of those slots, and
// the complement fills the k−t before it.
func (p *Pool) appendRead(dst []int, v value.Value) []int {
	n := len(dst)
	dst = slices.Grow(dst, p.k)[:n+p.k]
	w := p.appendWrite(dst[:n+p.k-p.t], v)[n+p.k-p.t:]
	out := dst[:n]
	wi := 0
	for r := 0; r < p.k; r++ {
		if wi < len(w) && w[wi] == r {
			wi++
			continue
		}
		out = append(out, r)
	}
	return out
}

// Name implements Scheme.
func (p *Pool) Name() string { return fmt.Sprintf("pool(k=%d)", p.k) }

// BitVector is the bit-encoding scheme: register index 2i+j stands for
// "bit i of the announced value is j".
type BitVector struct {
	bitsN, m int
}

// NewBitVector returns the bit-vector scheme for m ≥ 2 values.
func NewBitVector(m int) *BitVector {
	if m < 2 {
		panic(fmt.Sprintf("quorum: BitVector needs m ≥ 2, got %d", m))
	}
	b := bits.Len(uint(m - 1)) // ⌈lg m⌉
	return &BitVector{bitsN: b, m: m}
}

// M implements Scheme.
func (s *BitVector) M() int { return s.m }

// PoolSize implements Scheme.
func (s *BitVector) PoolSize() int { return 2 * s.bitsN }

// WriteQuorum implements Scheme.
func (s *BitVector) WriteQuorum(v value.Value) []int {
	return s.appendQuorum(make([]int, 0, s.bitsN), v, 0)
}

// ReadQuorum implements Scheme.
func (s *BitVector) ReadQuorum(v value.Value) []int {
	return s.appendQuorum(make([]int, 0, s.bitsN), v, 1)
}

// appendQuorum appends W_v (flip 0) or R_v (flip 1) to dst: register 2i+j
// for each bit i, where j is bit i of v, flipped for the read quorum.
func (s *BitVector) appendQuorum(dst []int, v value.Value, flip int) []int {
	x := checkValue(v, s.m, s)
	for i := 0; i < s.bitsN; i++ {
		dst = append(dst, 2*i+((x>>i)&1^flip))
	}
	return dst
}

// Name implements Scheme.
func (s *BitVector) Name() string { return fmt.Sprintf("bitvector(b=%d)", s.bitsN) }

// Verify checks the Theorem 8 condition W_v ∩ R_u = ∅ ⇔ v = u for every
// pair of values, plus basic sanity (indices in range, ascending, no
// duplicates). Cost O(m²·q); call it in tests and at tool startup, not in
// protocols. For very large m use VerifySample.
func Verify(s Scheme) error {
	m := s.M()
	writeBits, reads, err := checkAndIndex(s)
	if err != nil {
		return err
	}
	for v := 0; v < m; v++ {
		for u := 0; u < m; u++ {
			if err := checkPair(s, writeBits[v], reads[u], v, u); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifySample checks every diagonal pair (v, v) plus `pairs` random
// off-diagonal pairs — the only tractable verification for schemes with
// hundreds of thousands of values. A deterministic seed makes reported
// results reproducible.
func VerifySample(s Scheme, pairs int, seed uint64) error {
	m := s.M()
	writeBits, reads, err := checkAndIndex(s)
	if err != nil {
		return err
	}
	for v := 0; v < m; v++ {
		if err := checkPair(s, writeBits[v], reads[v], v, v); err != nil {
			return err
		}
	}
	src := xrand.New(seed)
	for i := 0; i < pairs; i++ {
		v, u := src.Intn(m), src.Intn(m)
		if err := checkPair(s, writeBits[v], reads[u], v, u); err != nil {
			return err
		}
	}
	return nil
}

// checkAndIndex validates quorum shapes and returns, per value, its
// write-quorum membership bitmap and its read quorum, so that the pair
// checks look up each value's quorums once.
func checkAndIndex(s Scheme) (writeBits [][]bool, reads [][]int, err error) {
	m := s.M()
	writeBits = make([][]bool, m)
	reads = make([][]int, m)
	for v := 0; v < m; v++ {
		w := s.WriteQuorum(value.Value(v))
		r := s.ReadQuorum(value.Value(v))
		for _, q := range [][]int{w, r} {
			prev := -1
			for _, i := range q {
				if i <= prev {
					return nil, nil, fmt.Errorf("quorum %s: value %d has non-ascending quorum %v", s.Name(), v, q)
				}
				if i < 0 || i >= s.PoolSize() {
					return nil, nil, fmt.Errorf("quorum %s: value %d index %d out of pool [0,%d)", s.Name(), v, i, s.PoolSize())
				}
				prev = i
			}
		}
		bits := make([]bool, s.PoolSize())
		for _, i := range w {
			bits[i] = true
		}
		writeBits[v], reads[v] = bits, r
	}
	return writeBits, reads, nil
}

// checkPair verifies W_v ∩ R_u = ∅ ⇔ v = u for one pair, given W_v's
// membership bitmap wv and R_u.
func checkPair(s Scheme, wv []bool, ru []int, v, u int) error {
	meet := false
	for _, i := range ru {
		if wv[i] {
			meet = true
			break
		}
	}
	if (v == u) == meet {
		rel := "misses"
		if meet {
			rel = "intersects"
		}
		return fmt.Errorf("quorum %s: W_%d %s R_%d", s.Name(), v, rel, u)
	}
	return nil
}

// BollobasSum evaluates the left-hand side of Theorem 9 (Bollobás's
// inequality) for a scheme: Σ_v 1/C(|W_v|+|R_v|, |W_v|) ≤ 1 must hold for
// any valid cross-intersecting family, with equality exactly for the
// optimal pool scheme.
func BollobasSum(s Scheme) float64 {
	sum := 0.0
	for v := 0; v < s.M(); v++ {
		a := len(s.WriteQuorum(value.Value(v)))
		b := len(s.ReadQuorum(value.Value(v)))
		sum += 1 / float64(Binomial(a+b, a))
	}
	return sum
}

// SpaceTable reports, for a given m, the register counts of each scheme
// including the proposal register, alongside the paper's formulas. Used by
// cmd/quorumgen and experiment E4.
type SpaceRow struct {
	M                int
	PoolRegisters    int // optimal scheme, incl. proposal
	BitVecRegisters  int // bit-vector scheme, incl. proposal
	PaperPoolBound   int // lg m + O(log log m) realized: MinPoolSize(m)+1
	PaperBitVecExact int // 2⌈lg m⌉ + 1
}

// Space computes the SpaceRow for m values.
func Space(m int) SpaceRow {
	bitsN := int(math.Ceil(math.Log2(float64(m))))
	if m == 1 {
		bitsN = 0
	}
	return SpaceRow{
		M:                m,
		PoolRegisters:    NewPool(m).PoolSize() + 1,
		BitVecRegisters:  NewBitVector(max2(m, 2)).PoolSize() + 1,
		PaperPoolBound:   MinPoolSize(m) + 1,
		PaperBitVecExact: 2*bitsN + 1,
	}
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
