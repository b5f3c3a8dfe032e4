package quorum

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/modular-consensus/modcon/internal/value"
)

func TestBinomialSmallValues(t *testing.T) {
	tests := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {4, 2, 6}, {5, 2, 10},
		{10, 5, 252}, {20, 10, 184756}, {3, 5, 0}, {5, -1, 0},
		{60, 30, 118264581564861424},
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= 30; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestMinPoolSize(t *testing.T) {
	tests := []struct {
		m, want int
	}{
		{1, 0},     // C(0,0)=1
		{2, 2},     // C(2,1)=2
		{3, 3},     // C(3,1)=3
		{4, 4},     // C(4,2)=6 ≥ 4
		{6, 4},     // exactly 6
		{7, 5},     // C(5,2)=10
		{100, 9},   // C(9,4)=126
		{1000, 13}, // C(13,6)=1716 ≥ 1000; C(12,6)=924 < 1000
	}
	for _, tt := range tests {
		if got := MinPoolSize(tt.m); got != tt.want {
			t.Errorf("MinPoolSize(%d) = %d, want %d", tt.m, got, tt.want)
		}
	}
}

func TestMinPoolSizeIsLgMPlusLogLog(t *testing.T) {
	// Theorem 10: pool size is lg m + Θ(log log m). Verify k - lg m grows
	// slower than, say, 2 log₂ log₂ m + 4 across a wide range.
	for _, m := range []int{2, 8, 64, 1024, 1 << 16, 1 << 24} {
		k := MinPoolSize(m)
		lg := math.Log2(float64(m))
		slack := float64(k) - lg
		bound := 2*math.Log2(math.Log2(float64(m))+1) + 4
		if slack < 0 || slack > bound {
			t.Errorf("m=%d: k=%d, lg m=%.1f, slack %.1f outside [0, %.1f]", m, k, lg, slack, bound)
		}
	}
}

func TestVerifyAllSchemes(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5, 6, 7, 8, 16, 33, 100} {
		schemes := []Scheme{NewPool(m), NewBitVector(m)}
		if m == 2 {
			schemes = append(schemes, Binary{})
		}
		for _, s := range schemes {
			if err := Verify(s); err != nil {
				t.Errorf("m=%d: %v", m, err)
			}
		}
	}
}

func TestPoolQuorumsAreDistinctSubsets(t *testing.T) {
	p := NewPool(20) // k=6, C(6,3)=20
	seen := make(map[string]bool)
	for v := 0; v < p.M(); v++ {
		w := p.WriteQuorum(value.Value(v))
		if len(w) != p.PoolSize()/2 {
			t.Fatalf("value %d: |W| = %d, want %d", v, len(w), p.PoolSize()/2)
		}
		key := ""
		for _, i := range w {
			key += string(rune('a' + i))
		}
		if seen[key] {
			t.Fatalf("duplicate write quorum for value %d: %v", v, w)
		}
		seen[key] = true
	}
}

func TestPoolReadIsComplement(t *testing.T) {
	p := NewPool(35) // k=7, t=3, C(7,3)=35
	for v := 0; v < p.M(); v++ {
		w := p.WriteQuorum(value.Value(v))
		r := p.ReadQuorum(value.Value(v))
		if len(w)+len(r) != p.PoolSize() {
			t.Fatalf("value %d: |W|+|R| = %d+%d != k=%d", v, len(w), len(r), p.PoolSize())
		}
		all := make(map[int]bool)
		for _, i := range append(append([]int{}, w...), r...) {
			if all[i] {
				t.Fatalf("value %d: W and R overlap at %d", v, i)
			}
			all[i] = true
		}
	}
}

func TestPoolColexOrderProperty(t *testing.T) {
	// Unranking must be injective and rank-monotone in colex order: the
	// reversed quorum (largest element first) must increase lexicographically
	// with v.
	p := NewPool(70) // k=8, t=4, C(8,4)=70
	prev := []int(nil)
	for v := 0; v < p.M(); v++ {
		w := p.WriteQuorum(value.Value(v))
		if prev != nil && !colexLess(prev, w) {
			t.Fatalf("colex order violated between %v and %v", prev, w)
		}
		prev = w
	}
}

func colexLess(a, b []int) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestBitVectorShape(t *testing.T) {
	s := NewBitVector(5) // 3 bits
	if s.PoolSize() != 6 {
		t.Fatalf("PoolSize = %d, want 6", s.PoolSize())
	}
	// Value 5 = 101b: bits (1,0,1) -> registers {2*0+1, 2*1+0, 2*2+1}.
	w := s.WriteQuorum(4) // 100b -> {0, 2, 5}
	want := []int{0, 2, 5}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("WriteQuorum(4) = %v, want %v", w, want)
		}
	}
	r := s.ReadQuorum(4) // complement positions {1, 3, 4}
	wantR := []int{1, 3, 4}
	for i := range wantR {
		if r[i] != wantR[i] {
			t.Fatalf("ReadQuorum(4) = %v, want %v", r, wantR)
		}
	}
}

func TestBitVectorSpaceMatchesPaper(t *testing.T) {
	// Exactly 2⌈lg m⌉ + 1 registers including the proposal.
	for _, m := range []int{2, 3, 4, 5, 8, 9, 1024, 1025} {
		s := NewBitVector(m)
		lg := int(math.Ceil(math.Log2(float64(m))))
		if s.PoolSize() != 2*lg {
			t.Errorf("m=%d: pool %d, want 2⌈lg m⌉ = %d", m, s.PoolSize(), 2*lg)
		}
	}
}

func TestBollobasTightness(t *testing.T) {
	// Theorem 9: Σ 1/C(a+b, a) ≤ 1 for any valid scheme; the full pool
	// scheme meets it with equality.
	for _, m := range []int{2, 6, 20, 70} {
		for _, s := range []Scheme{NewPool(m), NewBitVector(m)} {
			if sum := BollobasSum(s); sum > 1+1e-9 {
				t.Errorf("%s m=%d: Bollobás sum %v > 1", s.Name(), m, sum)
			}
		}
	}
	// Full pool: m = C(k, k/2) exactly.
	for _, k := range []int{2, 4, 6, 8} {
		m := int(Binomial(k, k/2))
		if sum := BollobasSum(NewPool(m)); math.Abs(sum-1) > 1e-9 {
			t.Errorf("full pool k=%d: Bollobás sum %v, want 1 (optimal)", k, sum)
		}
	}
}

var quorumSink []int

func TestBinaryScheme(t *testing.T) {
	var b Scheme = Binary{}
	if b.M() != 2 || b.PoolSize() != 2 {
		t.Fatal("binary scheme shape wrong")
	}
	for v, want := range [2][2][]int{{{0}, {1}}, {{1}, {0}}} {
		w, r := b.WriteQuorum(value.Value(v)), b.ReadQuorum(value.Value(v))
		if !reflect.DeepEqual(w, want[0]) || !reflect.DeepEqual(r, want[1]) {
			t.Fatalf("v=%d: W=%v R=%v, want W=%v R=%v", v, w, r, want[0], want[1])
		}
	}
	// Ratifiers call both quorums on every invocation. The results go to a
	// package variable so the compiler cannot keep them on the stack.
	allocs := testing.AllocsPerRun(100, func() {
		for v := value.Value(0); v < 2; v++ {
			quorumSink = b.WriteQuorum(v)
			quorumSink = b.ReadQuorum(v)
		}
	})
	if allocs != 0 {
		t.Errorf("Binary quorums: %v allocs per run, want 0", allocs)
	}
	if err := Verify(b); err != nil {
		t.Fatal(err)
	}
}

func TestSchemePanicsOnBadValues(t *testing.T) {
	schemes := []Scheme{Binary{}, NewPool(4), NewBitVector(4)}
	bad := []value.Value{-1, 4, value.None}
	for _, s := range schemes {
		for _, v := range bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s.WriteQuorum(%s) did not panic", s.Name(), v)
					}
				}()
				s.WriteQuorum(v)
			}()
		}
	}
}

func TestVerifyPropertyRandomM(t *testing.T) {
	f := func(mRaw uint16) bool {
		m := int(mRaw%500) + 2
		return Verify(NewPool(m)) == nil && Verify(NewBitVector(m)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceRow(t *testing.T) {
	row := Space(16)
	if row.BitVecRegisters != row.PaperBitVecExact {
		t.Errorf("bitvec registers %d != paper formula %d", row.BitVecRegisters, row.PaperBitVecExact)
	}
	if row.PoolRegisters != row.PaperPoolBound {
		t.Errorf("pool registers %d != MinPoolSize+1 = %d", row.PoolRegisters, row.PaperPoolBound)
	}
	if row.PoolRegisters > row.BitVecRegisters {
		t.Errorf("optimal pool (%d regs) larger than bit-vector (%d regs)", row.PoolRegisters, row.BitVecRegisters)
	}
}

func TestBitVectorRejectsM1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m=1")
		}
	}()
	NewBitVector(1)
}

func TestVerifySample(t *testing.T) {
	// Sampled verification agrees with full verification on valid schemes
	// and still catches the diagonal of a broken one.
	for _, m := range []int{2, 50, 5000} {
		if err := VerifySample(NewPool(m), 500, 1); err != nil {
			t.Errorf("pool m=%d: %v", m, err)
		}
		if err := VerifySample(NewBitVector(m), 500, 1); err != nil {
			t.Errorf("bitvector m=%d: %v", m, err)
		}
	}
	if err := VerifySample(brokenScheme{}, 100, 1); err == nil {
		t.Error("sampled verification missed a broken scheme")
	}
	if err := Verify(brokenScheme{}); err == nil {
		t.Error("full verification missed a broken scheme")
	}
}

// brokenScheme violates the diagonal condition: W_v ∩ R_v ≠ ∅.
type brokenScheme struct{}

func (brokenScheme) M() int                          { return 2 }
func (brokenScheme) PoolSize() int                   { return 2 }
func (brokenScheme) WriteQuorum(v value.Value) []int { return []int{0} }
func (brokenScheme) ReadQuorum(v value.Value) []int  { return []int{0} }
func (brokenScheme) Name() string                    { return "broken" }

// TestVerifyOffDiagonal: both verifiers must check W_v against R_u for
// u ≠ v, not only the diagonal. The two schemes below share a sound
// diagonal and differ only in R_1: in the defective one W_0 misses R_1, so
// a process that announced 0 goes unseen by a process reading R_1.
func TestVerifyOffDiagonal(t *testing.T) {
	sound := listScheme{pool: 3, w: [][]int{{0}, {1}}, r: [][]int{{1, 2}, {0, 2}}}
	defective := listScheme{pool: 3, w: [][]int{{0}, {1}}, r: [][]int{{1, 2}, {2}}}
	const want = "quorum list: W_0 misses R_1"
	if err := Verify(sound); err != nil {
		t.Errorf("Verify(sound): %v", err)
	}
	if err := VerifySample(sound, 100, 1); err != nil {
		t.Errorf("VerifySample(sound): %v", err)
	}
	if err := Verify(defective); err == nil || err.Error() != want {
		t.Errorf("Verify(defective) = %v, want %q", err, want)
	}
	// Each sampled pair is (0, 1) with probability 1/4; seed 1 draws it
	// within the 100 pairs.
	if err := VerifySample(defective, 100, 1); err == nil || err.Error() != want {
		t.Errorf("VerifySample(defective) = %v, want %q", err, want)
	}
}

// listScheme is a scheme given by its quorums: W_v is w[v] and R_v is r[v].
type listScheme struct {
	pool int
	w, r [][]int
}

func (s listScheme) M() int                          { return len(s.w) }
func (s listScheme) PoolSize() int                   { return s.pool }
func (s listScheme) WriteQuorum(v value.Value) []int { return s.w[v] }
func (s listScheme) ReadQuorum(v value.Value) []int  { return s.r[v] }
func (s listScheme) Name() string                    { return "list" }
