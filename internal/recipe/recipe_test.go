package recipe_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"github.com/modular-consensus/modcon"
	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/harness"
	"github.com/modular-consensus/modcon/internal/multi"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/setagree"
	"github.com/modular-consensus/modcon/internal/tas"
	"github.com/modular-consensus/modcon/internal/value"
)

// layoutGolden is the sha256 of writeLayout over rootRows and siteRows. It was
// recorded before this package existed, by building the same rows through the
// hand-written assemblies it replaced: the root Consensus, the experiments'
// protocol spec, multi's slot protocol, setagree's groups, tas's tournament
// nodes and modcon-bench's scaling target.
const layoutGolden = "79203d7a0f26a3c96705f862245e2cc6cd8e16aa9a98bd5dc8aa61cb904c5b6f"

// layoutRow is one site of the grid: build allocates its protocols into
// one file, or returns a nil file for an option set New rejects.
type layoutRow struct {
	name  string
	build func() (*register.File, []*core.Protocol, error)
}

// writeLayout writes what fixes a protocol's behaviour apart from its
// objects' code: every register's name and initial contents in allocation
// order, then per protocol its chain labels with StageOfIndex of each index.
func writeLayout(w io.Writer, file *register.File, protos []*core.Protocol) {
	fmt.Fprintln(w, "#")
	for i, v := range file.Contents() {
		fmt.Fprintf(w, "%s=%d\n", file.Name(register.Reg(i)), int64(v))
	}
	for _, p := range protos {
		fmt.Fprintln(w, "chain")
		chain := p.Object().(*core.Composition)
		for i := 0; i < p.Len(); i++ {
			stage, fb := p.StageOfIndex(i)
			fmt.Fprintf(w, "%s %d %v\n", chain.At(i).Label(), stage, fb)
		}
	}
}

// rootRows is the root option grid, built through New and Build.
func rootRows() []layoutRow {
	var rows []layoutRow
	bools := []bool{false, true}
	for _, n := range []int{1, 2, 5} {
		for _, m := range []int{2, 3, 16} {
			for scheme := modcon.SchemeAuto; scheme <= modcon.SchemeCollect; scheme++ {
				for conc := modcon.ConciliatorImpatient; conc <= modcon.ConciliatorNone; conc++ {
					for _, fp := range bools {
						for _, stages := range []int{0, 3} {
							for _, fb := range bools {
								for _, dw := range bools {
									name := fmt.Sprintf("root n=%d m=%d scheme=%d conciliator=%d fastpath=%v stages=%d fallback=%v detect=%v",
										n, m, scheme, conc, fp, stages, fb, dw)
									rows = append(rows, layoutRow{name, func() (*register.File, []*core.Protocol, error) {
										c, err := modcon.New(n, m, modcon.WithScheme(scheme), modcon.WithConciliator(conc),
											modcon.WithFastPath(fp), modcon.WithStages(stages), modcon.WithFallback(fb),
											modcon.WithWriteDetection(dw))
										if err != nil {
											return nil, nil, nil
										}
										file, proto, err := c.Build()
										return file, []*core.Protocol{proto}, err
									}})
								}
							}
						}
					}
				}
			}
		}
	}
	return rows
}

// specRow builds specs, in order, into one file.
func specRow(name string, specs ...recipe.Spec) layoutRow {
	return layoutRow{name, func() (*register.File, []*core.Protocol, error) {
		file := register.NewFile()
		protos := make([]*core.Protocol, len(specs))
		for i, s := range specs {
			p, err := s.Build(file)
			if err != nil {
				return nil, nil, err
			}
			protos[i] = p
		}
		return file, protos, nil
	}}
}

// multiSpecs are the slot protocols multi.Run builds for three slots: slot s
// at index base s*1000.
func multiSpecs(n, m int) []recipe.Spec {
	specs := make([]recipe.Spec, 3)
	for slot := range specs {
		specs[slot] = recipe.Spec{N: n, M: m, FastPath: true, Stages: 64, Fallback: true, Base: slot * 1000}
	}
	return specs
}

// setagreeSpecs are the group protocols setagree.New builds: group g of the
// pid-mod-k partition at index base (g+1)*1000.
func setagreeSpecs(n, m, k int) []recipe.Spec {
	specs := make([]recipe.Spec, k)
	for g := range specs {
		size := n / k
		if g < n%k {
			size++
		}
		specs[g] = recipe.Spec{N: size, M: m, FastPath: true, Stages: 64, Fallback: true, Base: (g + 1) * 1000}
	}
	return specs
}

// tasSpecs are the node protocols tas.New builds, level by level: node i of
// level l at index base (l*4096+i)*16.
func tasSpecs(n int) []recipe.Spec {
	var specs []recipe.Spec
	for width, level := n, 0; width > 1; width, level = (width+1)/2, level+1 {
		for i := 0; i < width/2; i++ {
			specs = append(specs, recipe.Spec{N: 2, M: 2, FastPath: true, Stages: 32, Fallback: true, Base: (level*4096 + i) * 16})
		}
	}
	return specs
}

// siteRows are the specs of the other sites: the experiments' default and
// its variants, multi's first three slots, setagree's groups, tas's trees
// and modcon-bench's scaling target.
func siteRows() []layoutRow {
	var rows []layoutRow
	for _, n := range []int{2, 5} {
		for _, m := range []int{2, 3, 16} {
			def := recipe.Spec{N: n, M: m, FastPath: true}
			noFast, bitVec, ratOnly, fb, deep := def, def, def, def, def
			noFast.FastPath = false
			bitVec.Scheme = recipe.SchemeBitVector
			ratOnly.Conciliator, ratOnly.FastPath, ratOnly.Stages = recipe.ConciliatorNone, false, 64
			fb.Fallback = true
			deep.FastPath, deep.Stages, deep.Fallback = false, 12, true
			for i, s := range []recipe.Spec{def, noFast, bitVec, ratOnly, fb, deep} {
				rows = append(rows, specRow(fmt.Sprintf("exp n=%d m=%d variant=%d", n, m, i), s))
			}
		}
	}
	for _, g := range multiGrid {
		rows = append(rows, specRow(fmt.Sprintf("multi n=%d m=%d", g.n, g.m), multiSpecs(g.n, g.m)...))
	}
	for _, g := range setagreeGrid {
		rows = append(rows, specRow(fmt.Sprintf("setagree n=%d m=%d k=%d", g.n, g.m, g.k), setagreeSpecs(g.n, g.m, g.k)...))
	}
	for _, n := range tasGrid {
		rows = append(rows, specRow(fmt.Sprintf("tas n=%d", n), tasSpecs(n)...))
	}
	return append(rows, specRow("cmd", recipe.Spec{N: 8, M: 2, FastPath: true}))
}

var (
	multiGrid    = []struct{ n, m int }{{1, 2}, {1, 5}, {3, 2}, {3, 5}}
	setagreeGrid = []struct{ n, m, k int }{{1, 2, 1}, {5, 2, 2}, {6, 3, 3}, {4, 16, 1}}
	tasGrid      = []int{1, 2, 3, 5, 8}
)

// TestRecipeLayoutGolden pins every site's register layout, chains and stage
// numbering to the hand-written assemblies the recipe replaced.
func TestRecipeLayoutGolden(t *testing.T) {
	h := sha256.New()
	w := bufio.NewWriter(h)
	for _, row := range append(rootRows(), siteRows()...) {
		file, protos, err := row.build()
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if file != nil {
			writeLayout(w, file, protos)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != layoutGolden {
		t.Errorf("layout digest %s, want %s", got, layoutGolden)
	}
}

// TestSiteSpecs checks that multi.Run, setagree.New and tas.New allocate
// exactly the registers of the specs the golden grid builds for them. The
// sequence crashes every process before its first operation, so its file
// keeps the contents the build left.
func TestSiteSpecs(t *testing.T) {
	registers := func(file *register.File) []byte {
		var b bytes.Buffer
		writeLayout(&b, file, nil)
		return b.Bytes()
	}
	check := func(name string, site func(*register.File) error, specs []recipe.Spec) {
		t.Helper()
		file := register.NewFile()
		if err := site(file); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _, err := specRow(name, specs...).build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(registers(file), registers(want)) {
			t.Errorf("%s: the site's registers differ from its specs'", name)
		}
	}
	for _, g := range multiGrid {
		check(fmt.Sprintf("multi n=%d m=%d", g.n, g.m), func(f *register.File) error {
			crash := make(map[int]int, g.n)
			for pid := range g.n {
				crash[pid] = 0
			}
			proposals := make([][]value.Value, 3)
			for slot := range proposals {
				proposals[slot] = make([]value.Value, g.n)
			}
			_, err := multi.Run(multi.Config{
				ObjectConfig: harness.ObjectConfig{N: g.n, File: f, Scheduler: sched.NewRoundRobin(), CrashAfter: crash},
				M:            g.m,
				Proposals:    proposals,
			})
			return err
		}, multiSpecs(g.n, g.m))
	}
	for _, g := range setagreeGrid {
		check(fmt.Sprintf("setagree n=%d m=%d k=%d", g.n, g.m, g.k), func(f *register.File) error {
			_, err := setagree.New(f, g.n, g.m, g.k)
			return err
		}, setagreeSpecs(g.n, g.m, g.k))
	}
	for _, n := range tasGrid {
		check(fmt.Sprintf("tas n=%d", n), func(f *register.File) error {
			_, err := tas.New(f, n)
			return err
		}, tasSpecs(n))
	}
}
