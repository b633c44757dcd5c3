package search

import (
	"context"
	"slices"
)

// recursiveBestFirst runs RBFS (Korf 1993; §2.3 of the paper): a localized,
// recursive best-first exploration that keeps track of a locally optimal
// f-value and backtracks when it is exceeded, backing up the best known
// f-value of each abandoned subtree. Like IDA it uses memory linear in the
// search depth and may re-generate subtrees. The context is checked at
// every examined state.
func recursiveBestFirst(ctx context.Context, p Problem, h Heuristic, lim Limits) (*Result, error) {
	start := p.Start()
	c := newCounter(ctx, "RBFS", lim)
	hs := h(start)
	c.candidate(start, hs, func() []Move { return nil })
	onPath := []State{start}
	var path []Move
	res, _, err := rbfs(p, h, c, start, 0, hs, inf, &path, &onPath, &childFreeList{})
	if err != nil {
		return nil, c.fail(err)
	}
	if res == nil {
		return nil, c.fail(ErrNotFound)
	}
	return c.finish(res), nil
}

// rbfs explores s with the given stored f-value under fLimit. It returns a
// result if a goal is found, otherwise the revised backed-up f-value of s.
// onPath holds the states on the current path, the start state first; s is
// already on it.
func rbfs(p Problem, h Heuristic, c *counter, s State, g, f, fLimit int, path *[]Move, onPath *[]State, fl *childFreeList) (*Result, int, error) {
	if err := c.examine(); err != nil {
		return nil, 0, err
	}
	if c.isGoal(p, s, g) {
		return &Result{Path: append([]Move(nil), *path...), Goal: s}, 0, nil
	}
	moves, err := c.expand(p, s, g)
	if err != nil {
		return nil, 0, err
	}
	// The deferred put runs after the visit's loop is done with the slice on
	// every exit path.
	children := fl.get(len(moves))
	defer func() { fl.put(children) }()
	for i, m := range moves {
		if slices.Contains(*onPath, m.To) {
			continue
		}
		cg := g + m.Cost
		ch := h(m.To)
		if c.best != nil {
			c.candidate(m.To, ch, func() []Move {
				cp := make([]Move, 0, len(*path)+1)
				cp = append(cp, *path...)
				return append(cp, m)
			})
		}
		cf := cg + ch
		// Inherit the parent's backed-up value: if s was previously
		// explored and backed up to f, its children cannot do better.
		if f > cf {
			cf = f
		}
		children = append(children, child{i: i, g: cg, h: ch, f: cf})
	}
	if len(children) == 0 {
		return nil, inf, nil
	}
	// Sort once; after each revision only the best child's value changed,
	// and reinsertFirst moves it to where a stable re-sort would.
	sortChildren(children)
	for {
		best := &children[0]
		// best.f >= inf means every child subtree is exhausted (dead ends);
		// without this check the top-level call, whose fLimit is inf, would
		// recurse forever.
		if best.f > fLimit || best.f >= inf {
			return nil, best.f, nil
		}
		alt := inf
		if len(children) > 1 {
			alt = children[1].f
		}
		if alt > fLimit {
			alt = fLimit
		}
		m := moves[best.i]
		*onPath = append(*onPath, m.To)
		*path = append(*path, m)
		c.frontier(len(*path))
		res, revised, err := rbfs(p, h, c, m.To, best.g, best.f, alt, path, onPath, fl)
		if err != nil || res != nil {
			return res, 0, err
		}
		*path = (*path)[:len(*path)-1]
		*onPath = (*onPath)[:len(*onPath)-1]
		best.f = revised
		reinsertFirst(children)
	}
}
