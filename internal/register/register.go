// Package register implements the shared memory of the model: a growable
// file of atomic multi-writer multi-reader registers.
//
// In the paper's model (§2) memory is a set of atomic registers; the value
// returned by each read equals the last value written. The simulated runtime
// executes at most one operation at a time, so the File here needs no
// internal locking — atomicity is provided by the scheduler. (The live
// backend in internal/live provides a sync/atomic-based register file for
// free-running goroutines.)
//
// Registers are allocated through an Allocator, which the consensus
// constructions use to lay out the (conceptually unbounded) sequence of
// conciliator and ratifier objects deterministically: every process computes
// the same addresses without communication.
package register

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/modular-consensus/modcon/internal/value"
)

// Reg is a register handle: an index into a File.
type Reg int

// Array is a contiguous block of registers, used for write/read quorums and
// for the collect operation.
type Array struct {
	Base Reg
	Len  int
}

// At returns the i-th register of the array.
func (a Array) At(i int) Reg {
	if i < 0 || i >= a.Len {
		panic(fmt.Sprintf("register: array index %d out of [0,%d)", i, a.Len))
	}
	return a.Base + Reg(i)
}

// File is a growable register file. All registers are initialized to ⊥
// unless overridden with Init.
type File struct {
	cells []value.Value
	// spans records one entry per Alloc call; per-cell debug names are
	// derived lazily on Name lookup, so allocating a large file never pays
	// O(cells) string formatting up front (names only matter for traces and
	// error messages, which are off the hot path by construction).
	spans []nameSpan
	// semantics is the consistency model this file runs under. It is set by
	// the execution backend from the run configuration (SetSemantics); the
	// zero value Atomic matches the paper's base model. Name and the error
	// strings report it for non-atomic files so traces and failures
	// self-describe which model produced them.
	semantics Semantics
}

// nameSpan labels the contiguous block of registers from one Alloc call.
type nameSpan struct {
	base int
	n    int
	name string
}

// NewFile returns an empty register file.
func NewFile() *File {
	return &File{}
}

// Alloc allocates n fresh registers initialized to ⊥ and returns the block.
// name is a debug label for traces; it is stored once per block and expanded
// to "name[i]" lazily on the first Name lookup of a cell.
func (f *File) Alloc(n int, name string) Array {
	if n < 0 {
		panic("register: Alloc with negative count")
	}
	base := Reg(len(f.cells))
	for i := 0; i < n; i++ {
		f.cells = append(f.cells, value.None)
	}
	if n > 0 {
		f.spans = append(f.spans, nameSpan{base: int(base), n: n, name: name})
	}
	return Array{Base: base, Len: n}
}

// Grow makes room for cells more registers in blocks more Alloc calls, so
// code that knows its layout sizes the file once instead of growing it one
// Alloc at a time.
func (f *File) Grow(cells, blocks int) {
	f.cells = slices.Grow(f.cells, cells)
	f.spans = slices.Grow(f.spans, blocks)
}

// Alloc1 allocates a single register and returns its handle.
func (f *File) Alloc1(name string) Reg {
	return f.Alloc(1, name).Base
}

// Init sets the initial (current) value of a register. Protocols whose
// registers start at a non-⊥ value (e.g. binary announcement registers
// starting at 0) call this at construction time, before any execution.
func (f *File) Init(r Reg, v value.Value) {
	f.cells[f.check(r)] = v
}

// Load returns the current value of r.
func (f *File) Load(r Reg) value.Value {
	return f.cells[f.check(r)]
}

// Store sets the current value of r.
func (f *File) Store(r Reg, v value.Value) {
	f.cells[f.check(r)] = v
}

// Snapshot copies the contents of an array (used for Collect).
func (f *File) Snapshot(a Array) []value.Value {
	out := make([]value.Value, a.Len)
	copy(out, f.cells[a.Base:a.Base+Reg(a.Len)])
	return out
}

// SnapshotAppend appends the contents of an array to dst and returns the
// extended slice. The allocation-free form of Snapshot: the simulator calls
// it with a reused buffer on every cheap-collect step.
func (f *File) SnapshotAppend(dst []value.Value, a Array) []value.Value {
	if a.Len > 0 {
		f.check(a.Base)
		f.check(a.Base + Reg(a.Len) - 1)
	}
	return append(dst, f.cells[a.Base:a.Base+Reg(a.Len)]...)
}

// Len returns the number of allocated registers.
func (f *File) Len() int { return len(f.cells) }

// Name returns the debug name of r ("label" for single-register blocks,
// "label[i]" within larger blocks), or "r<i>" if unnamed. The string is
// formatted on demand — allocation names are stored per block, not per cell.
func (f *File) Name(r Reg) string {
	i := f.check(r)
	// Binary search the spans (sorted by base, non-overlapping) for i.
	lo, hi := 0, len(f.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.spans[mid].base+f.spans[mid].n <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var name string
	if lo < len(f.spans) && f.spans[lo].base <= i && f.spans[lo].name != "" {
		s := f.spans[lo]
		if s.n == 1 {
			name = s.name
		} else {
			name = fmt.Sprintf("%s[%d]", s.name, i-s.base)
		}
	} else {
		name = fmt.Sprintf("r%d", i)
	}
	// Atomic names stay exactly as they always were (golden traces depend on
	// them); weaker/stronger models tag every lookup so a trace line or error
	// can never be misread as atomic behavior.
	if f.semantics != Atomic {
		name += "@" + f.semantics.String()
	}
	return name
}

// SetSemantics records the consistency model this file runs under. Execution
// backends call it when lowering a run configuration; it has no effect on
// the stored values, only on how reads are resolved by the backend and how
// names and errors describe the file.
func (f *File) SetSemantics(s Semantics) { f.semantics = s }

// Semantics returns the consistency model recorded by SetSemantics
// (Atomic unless overridden).
func (f *File) Semantics() Semantics { return f.semantics }

// Contents returns a copy of the whole memory: a fresh, caller-owned image
// (tests, archival, the image an engine restores between trials). Cells is
// the copy-free view of the same memory.
func (f *File) Contents() []value.Value {
	out := make([]value.Value, len(f.cells))
	copy(out, f.cells)
	return out
}

// Cells returns the live register cells, indexed by Reg, without copying:
// every later Store shows through it. It is read-only by contract — write
// only through Store and Init — and goes stale when Alloc grows the file,
// so callers fetch it again rather than keep it. The simulator serves it to
// location-oblivious and adaptive adversaries as their view of memory.
func (f *File) Cells() []value.Value { return f.cells }

// Reset restores every register to ⊥. Inits must be re-applied by the owner;
// engines that reuse a file across executions snapshot the post-Init image
// with Contents and put it back with Restore instead.
func (f *File) Reset() {
	for i := range f.cells {
		f.cells[i] = value.None
	}
}

// Restore overwrites the file's contents with a previously captured image
// (see Contents), without allocating. It returns an error if the file has
// grown since the image was taken — a protocol that allocates registers
// mid-execution cannot be pooled, and silently restoring a prefix would
// corrupt the next run.
func (f *File) Restore(img []value.Value) error {
	if len(img) != len(f.cells) {
		return fmt.Errorf("register: restore image has %d cells, %s file has %d (the file grew after the image was taken)", len(img), f.semantics, len(f.cells))
	}
	copy(f.cells, img)
	return nil
}

func (f *File) check(r Reg) int {
	if r < 0 || int(r) >= len(f.cells) {
		panic(fmt.Sprintf("register: access to unallocated register %d (%s file, size %d)", r, f.semantics, len(f.cells)))
	}
	return int(r)
}

// Names formats debug names (object labels and register-block names) into
// one shared buffer. Code that lays out many objects grows it once to the
// bytes their names take, so all of them cost one allocation. The zero
// value is ready to use; a Names must not be copied after first use.
type Names struct {
	b strings.Builder
}

// Grow makes room for n more bytes of names.
func (ns *Names) Grow(n int) { ns.b.Grow(n) }

// Format returns prefix, index in decimal, then suffix: the name
// fmt.Sprintf("%s%d%s", prefix, index, suffix) gives. The string shares
// the buffer's memory, which later names never overwrite.
func (ns *Names) Format(prefix string, index int, suffix string) string {
	start := ns.b.Len()
	var digits [20]byte
	ns.b.WriteString(prefix)
	ns.b.Write(strconv.AppendInt(digits[:0], int64(index), 10))
	ns.b.WriteString(suffix)
	return ns.b.String()[start:]
}

// NameLen returns the length of the name Format(prefix, index, suffix)
// returns, without formatting it.
func NameLen(prefix string, index int, suffix string) int {
	var digits [20]byte
	return len(prefix) + len(strconv.AppendInt(digits[:0], int64(index), 10)) + len(suffix)
}
