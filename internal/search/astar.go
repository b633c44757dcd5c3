package search

import (
	"container/heap"
	"context"
)

// node is an A*/greedy frontier entry carrying its path.
type node struct {
	state State
	g     int
	f     int
	path  []Move
	seq   int // insertion order, for deterministic tie-breaking
}

type frontier []*node

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].f != f[j].f {
		return f[i].f < f[j].f
	}
	return f[i].seq < f[j].seq
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(*node)) }
func (f *frontier) Pop() any {
	old := *f
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*f = old[:n-1]
	return x
}

// bestFirst is textbook best-first search with a closed set: A* orders the
// frontier by f = g + h, and greedy best-first search (greedy) by h alone.
// Both are included for ablation: the paper reports that A*'s exponential
// memory made early TUPELO implementations ineffective, motivating IDA and
// RBFS, and greedy search is fast but not optimal.
func bestFirst(ctx context.Context, p Problem, h Heuristic, lim Limits, greedy bool) (*Result, error) {
	algo := "A*"
	if greedy {
		algo = "Greedy"
	}
	c := newCounter(ctx, algo, lim)
	start := p.Start()
	seq := 0
	f := h(start)
	c.candidate(start, f, func() []Move { return nil })
	open := &frontier{{state: start, g: 0, f: f, seq: seq}}
	heap.Init(open)
	bestG := map[State]int{start: 0}
	for open.Len() > 0 {
		c.frontier(open.Len())
		n := heap.Pop(open).(*node)
		if g, ok := bestG[n.state]; ok && n.g > g {
			continue // stale entry
		}
		if err := c.examine(); err != nil {
			return nil, c.fail(err)
		}
		if c.isGoal(p, n.state, n.g) {
			return c.finish(&Result{Path: n.path, Goal: n.state}), nil
		}
		moves, err := c.expand(p, n.state, n.g)
		if err != nil {
			return nil, c.fail(err)
		}
		for _, m := range moves {
			g := n.g + m.Cost
			if prev, seen := bestG[m.To]; seen && g >= prev {
				continue
			}
			bestG[m.To] = g
			seq++
			hv := h(m.To)
			f := g + hv
			if greedy {
				f = hv
			}
			path := make([]Move, 0, len(n.path)+1)
			path = append(path, n.path...)
			path = append(path, m)
			// The node owns path and never mutates it, so the best-effort
			// tracker can hold a reference instead of a copy.
			c.candidate(m.To, hv, func() []Move { return path })
			heap.Push(open, &node{state: m.To, g: g, f: f, path: path, seq: seq})
		}
	}
	return nil, c.fail(ErrNotFound)
}
