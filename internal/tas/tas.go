// Package tas implements an n-process test-and-set (leader election) object
// as a binary tournament of two-process consensus instances — the classic
// reduction showing what consensus objects buy you downstream, instantiated
// here with the paper's own conciliator/ratifier protocol at n = 2 per
// tournament node.
//
// Each process enters at its leaf and climbs: at every internal node the
// winners of the two subtrees run a 2-process binary consensus on which
// side wins (side 0 proposes 0, side 1 proposes 1). A process that loses a
// node returns Lose immediately; the process that wins the root returns
// Win. Agreement per node makes the winner unique, and validity makes a
// walkover (empty opposing subtree — the opponent never showed up or
// crashed) decide for the present side, so exactly one completing process
// wins.
package tas

import (
	"fmt"

	"github.com/modular-consensus/modcon/internal/core"
	"github.com/modular-consensus/modcon/internal/recipe"
	"github.com/modular-consensus/modcon/internal/register"
	"github.com/modular-consensus/modcon/internal/value"
)

// Outcome is a test-and-set result.
type Outcome int

const (
	// Lose means some other process won.
	Lose Outcome = iota + 1
	// Win means this process is the unique winner.
	Win
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Lose:
		return "lose"
	case Win:
		return "win"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// TAS is a one-shot n-process test-and-set object.
type TAS struct {
	n      int
	levels int
	// nodes[l][i] decides between the two children of node i at level l;
	// each is a 2-process binary consensus.
	nodes [][]*core.Protocol
}

// New allocates the tournament in file for n processes.
func New(file *register.File, n int) (*TAS, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tas: n=%d must be positive", n)
	}
	t := &TAS{n: n}
	for width := n; width > 1; width = (width + 1) / 2 {
		level := make([]*core.Protocol, width/2)
		l := len(t.nodes)
		for i := range level {
			p, err := newPairConsensus(file, l, i)
			if err != nil {
				return nil, err
			}
			level[i] = p
		}
		t.nodes = append(t.nodes, level)
		t.levels++
	}
	return t, nil
}

// newPairConsensus builds a 2-process binary consensus for one tournament
// node, with labels carrying the node coordinates.
func newPairConsensus(file *register.File, level, index int) (*core.Protocol, error) {
	return recipe.Spec{N: 2, M: 2, FastPath: true, Stages: 32, Fallback: true, Base: (level*4096 + index) * 16}.Build(file)
}

// Invoke runs the calling process's test-and-set. Exactly one completing
// process receives Win.
func (t *TAS) Invoke(e core.Env) Outcome {
	pos := e.PID()
	for l, level := range t.nodes {
		width := t.widthAt(l)
		if pos == width-1 && pos%2 == 0 {
			// Odd bracket: no opponent subtree at all; advance by bye.
			pos /= 2
			continue
		}
		node := level[pos/2]
		side := value.Value(pos % 2)
		out, ok := node.Run(pairEnv{Env: e, pid: int(side)}, side)
		if !ok {
			panic("tas: node consensus exhausted its chain despite fallback")
		}
		if out != side {
			return Lose
		}
		pos /= 2
	}
	return Win
}

// widthAt returns the number of tournament slots entering level l.
func (t *TAS) widthAt(level int) int {
	width := t.n
	for i := 0; i < level; i++ {
		width = (width + 1) / 2
	}
	return width
}

// Levels returns the tournament depth (⌈lg n⌉).
func (t *TAS) Levels() int { return t.levels }

// pairEnv renumbers the calling process to its side (0 or 1) within a
// tournament node's 2-process consensus.
type pairEnv struct {
	core.Env

	pid int
}

// PID returns the node-local process id.
func (p pairEnv) PID() int { return p.pid }

// N returns the node-local process count.
func (p pairEnv) N() int { return 2 }
