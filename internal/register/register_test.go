package register

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/modular-consensus/modcon/internal/value"
)

func TestAllocInitializesToNone(t *testing.T) {
	f := NewFile()
	a := f.Alloc(4, "q")
	if f.Len() != 4 {
		t.Fatalf("Len = %d", f.Len())
	}
	for i := 0; i < a.Len; i++ {
		if !f.Load(a.At(i)).IsNone() {
			t.Fatalf("register %d not ⊥ after alloc", i)
		}
	}
}

func TestStoreLoad(t *testing.T) {
	f := NewFile()
	r := f.Alloc1("x")
	f.Store(r, 42)
	if got := f.Load(r); got != 42 {
		t.Fatalf("Load = %s", got)
	}
	f.Store(r, 7)
	if got := f.Load(r); got != 7 {
		t.Fatalf("Load after overwrite = %s", got)
	}
}

func TestInit(t *testing.T) {
	f := NewFile()
	r := f.Alloc1("b")
	f.Init(r, 0)
	if got := f.Load(r); got != 0 {
		t.Fatalf("Load after Init = %s", got)
	}
}

func TestReadReturnsLastWrite(t *testing.T) {
	// Register semantics property: a read returns the most recent store.
	f := NewFile()
	a := f.Alloc(8, "m")
	last := make(map[Reg]value.Value)
	check := func(ops []uint16) bool {
		for _, op := range ops {
			r := a.At(int(op) % a.Len)
			if op&1 == 0 {
				v := value.Value(op >> 1)
				f.Store(r, v)
				last[r] = v
			} else {
				want, ok := last[r]
				if !ok {
					want = value.None
				}
				if f.Load(r) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	f := NewFile()
	a := f.Alloc(3, "s")
	f.Store(a.At(0), 1)
	f.Store(a.At(2), 3)
	snap := f.Snapshot(a)
	if len(snap) != 3 || snap[0] != 1 || !snap[1].IsNone() || snap[2] != 3 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// Snapshot must be a copy.
	snap[0] = 99
	if f.Load(a.At(0)) != 1 {
		t.Fatal("Snapshot aliases file memory")
	}
}

func TestContentsIsCopy(t *testing.T) {
	f := NewFile()
	r := f.Alloc1("c")
	f.Store(r, 5)
	c := f.Contents()
	c[0] = 6
	if f.Load(r) != 5 {
		t.Fatal("Contents aliases file memory")
	}
}

func TestReset(t *testing.T) {
	f := NewFile()
	a := f.Alloc(2, "z")
	f.Store(a.At(0), 1)
	f.Store(a.At(1), 2)
	f.Reset()
	for i := 0; i < 2; i++ {
		if !f.Load(a.At(i)).IsNone() {
			t.Fatalf("register %d not ⊥ after Reset", i)
		}
	}
}

func TestNames(t *testing.T) {
	f := NewFile()
	r := f.Alloc1("proposal")
	a := f.Alloc(2, "w")
	if got := f.Name(r); got != "proposal" {
		t.Fatalf("Name = %q", got)
	}
	if got := f.Name(a.At(1)); got != "w[1]" {
		t.Fatalf("Name = %q", got)
	}
}

func TestArrayAtBounds(t *testing.T) {
	a := Array{Base: 2, Len: 3}
	if a.At(0) != 2 || a.At(2) != 4 {
		t.Fatalf("At mapping wrong: %d %d", a.At(0), a.At(2))
	}
	for _, i := range []int{-1, 3} {
		func(i int) {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			a.At(i)
		}(i)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	f := NewFile()
	f.Alloc(1, "a")
	for name, fn := range map[string]func(){
		"load":     func() { f.Load(5) },
		"store":    func() { f.Store(-1, 0) },
		"negalloc": func() { f.Alloc(-1, "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAllocationsAreContiguousAndFresh(t *testing.T) {
	f := NewFile()
	a := f.Alloc(3, "a")
	b := f.Alloc(2, "b")
	if a.Base != 0 || b.Base != 3 {
		t.Fatalf("bases: %d %d", a.Base, b.Base)
	}
	f.Store(a.At(2), 9)
	if !f.Load(b.At(0)).IsNone() {
		t.Fatal("blocks overlap")
	}
}

// TestNamesFormat: Format spells a name as fmt does, NameLen gives its
// length, and every name keeps its bytes while later names outgrow the
// buffer's reservation.
func TestNamesFormat(t *testing.T) {
	var names Names
	names.Grow(8)
	var got, want []string
	for _, i := range []int{0, 7, -1, 10, -45, 512, 1000, math.MaxInt64, math.MinInt64} {
		for _, suffix := range []string{"", ".pool", ".proposal"} {
			w := fmt.Sprintf("R%d%s", i, suffix)
			got, want = append(got, names.Format("R", i, suffix)), append(want, w)
			if n := NameLen("R", i, suffix); n != len(w) {
				t.Errorf("NameLen(R, %d, %q) = %d, want %d", i, suffix, n, len(w))
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("name %d = %q, want %q", i, got[i], want[i])
		}
	}
}
