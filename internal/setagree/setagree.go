// Package setagree provides k-set agreement on top of the consensus stack:
// every process outputs some process's input and at most k distinct values
// are output in any execution.
//
// The paper's discussion points at randomized set agreement via multi-sided
// shared coins (its reference [23]) as the sophisticated route; this package
// implements the classic *partition* construction instead: split the n
// processes into k static groups and run one full consensus instance per
// group. Each group's instance is the paper's own conciliator/ratifier
// chain, so the cost per process is the paper's consensus cost at group
// size, and at most one value survives per group — hence at most k overall.
// The groups never communicate, which also gives a clean fault-isolation
// property: crashes in one group cannot affect another.
package setagree

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// Protocol is a one-shot k-set agreement object for n processes over values
// 0..m-1.
type Protocol struct {
	n, m, k int
	groups  []*core.Protocol // one consensus instance per group
}

// New allocates the protocol's registers in file. k must be in [1, n];
// k = 1 is consensus, k = n is trivial (everyone keeps its input — but the
// construction still funnels through single-process groups).
func New(file *register.File, n, m, k int) (*Protocol, error) {
	if n <= 0 {
		return nil, fmt.Errorf("setagree: n=%d must be positive", n)
	}
	if m < 2 {
		return nil, fmt.Errorf("setagree: m=%d must be at least 2", m)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("setagree: k=%d must be in [1, %d]", k, n)
	}
	p := &Protocol{n: n, m: m, k: k}
	for g := 0; g < k; g++ {
		// The conciliator's write probabilities are tuned to the number of
		// *participants*, which is the group size.
		spec := recipe.Spec{N: groupSize(n, k, g), M: m, FastPath: true, Stages: 64, Fallback: true, Base: (g + 1) * 1000}
		proto, err := spec.Build(file)
		if err != nil {
			return nil, fmt.Errorf("setagree: group %d: %w", g, err)
		}
		p.groups = append(p.groups, proto)
	}
	return p, nil
}

// groupSize returns the size of group g under the pid-mod-k partition.
func groupSize(n, k, g int) int {
	size := n / k
	if g < n%k {
		size++
	}
	return size
}

// Group returns the group index of pid.
func (p *Protocol) Group(pid int) int { return pid % p.k }

// Run executes the calling process's side: it joins its group's consensus
// with its own input. The inner protocols always decide (they end in a CIL
// fallback).
//
// The group-local process id is pid/k: the CIL fallback and the collect
// ratifier index registers by process id, so ids must be dense in
// [0, groupSize).
func (p *Protocol) Run(e core.Env, v value.Value) value.Value {
	g := p.Group(e.PID())
	out, ok := p.groups[g].Run(groupEnv{
		Env: e,
		pid: e.PID() / p.k,
		n:   groupSize(p.n, p.k, g),
	}, v)
	if !ok {
		panic("setagree: group consensus exhausted its chain despite fallback")
	}
	return out
}

// K returns the agreement bound.
func (p *Protocol) K() int { return p.k }

// groupEnv renumbers the process id into the group-local dense range and
// reports the group size as the process count. All other operations pass
// through.
type groupEnv struct {
	core.Env

	pid, n int
}

// PID returns the group-local process id.
func (g groupEnv) PID() int { return g.pid }

// N returns the group size.
func (g groupEnv) N() int { return g.n }
