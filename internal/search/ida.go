package search

import (
	"cmp"
	"context"
	"slices"
)

// idaStar runs Iterative Deepening A* (§2.3): a sequence of depth-first
// probes, each bounded by an f-value limit, iteratively raising the limit to
// the smallest f-value that exceeded it. Memory use is linear in the depth
// of the search; states may be re-examined across iterations, which the
// paper accepts (and counts) in exchange for the memory guarantee. The
// context is checked at every examined state.
func idaStar(ctx context.Context, p Problem, h Heuristic, lim Limits) (*Result, error) {
	start := p.Start()
	c := newCounter(ctx, "IDA", lim)
	bound := h(start)
	var fl childFreeList
	// Every probe pops what it pushes, so one path slice serves all
	// iterations.
	onPath := []State{start}
	for {
		c.stats.Iterations++
		var path []Move
		// On abort, Stats.Depth stays 0 like every other algorithm:
		// Stats.Depth documents the length of the solution path found, and
		// the in-flight probe depth is not one.
		next, res, err := idaProbe(p, h, c, start, 0, bound, &path, &onPath, &fl)
		if err != nil {
			return nil, c.fail(err)
		}
		if res != nil {
			return c.finish(res), nil
		}
		if next >= inf {
			return nil, c.fail(ErrNotFound)
		}
		bound = next
	}
}

// idaProbe performs one bounded depth-first probe. It returns the smallest
// f-value that exceeded the bound (inf if the subtree is exhausted), or a
// result if a goal was found on this probe. onPath holds the states on the
// current path, the start state first; s is already on it.
func idaProbe(p Problem, h Heuristic, c *counter, s State, g, bound int, path *[]Move, onPath *[]State, fl *childFreeList) (int, *Result, error) {
	f := g + h(s)
	if c.best != nil {
		c.candidate(s, f-g, func() []Move { return append([]Move(nil), *path...) })
	}
	if f > bound {
		return f, nil, nil
	}
	if err := c.examine(); err != nil {
		return 0, nil, err
	}
	if c.isGoal(p, s, g) {
		return 0, &Result{Path: append([]Move(nil), *path...), Goal: s}, nil
	}
	moves, err := c.expand(p, s, g)
	if err != nil {
		return 0, nil, err
	}
	// Successor ordering: probe children in increasing (f, h) order. This
	// is the standard move-ordering enhancement for iterative deepening;
	// with the non-monotone heuristics of §3 (f can decrease along good
	// paths) it is what steers the depth-first probe toward the goal
	// instead of leaving the order to operator enumeration.
	kids := fl.get(len(moves))
	defer func() { fl.put(kids) }()
	for i, m := range moves {
		hv := h(m.To)
		kids = append(kids, child{i: i, g: g + m.Cost, h: hv, f: g + m.Cost + hv})
	}
	sortChildren(kids)
	min := inf
	for _, kid := range kids {
		m := moves[kid.i]
		if slices.Contains(*onPath, m.To) {
			continue // cycle along the current path
		}
		if kid.f > bound {
			// The child's probe would return kid.f at once: do what its
			// entry does without entering it.
			c.frontier(len(*path) + 1)
			if kid.f < min {
				min = kid.f
			}
			if c.best == nil {
				// Children come in (f, h) order, so no later one can
				// lower min.
				break
			}
			// Under BestEffort every remaining child is still offered:
			// a later child can carry a lower h behind a higher f.
			c.best.offer(m.To, kid.h, func() []Move {
				return append(append(make([]Move, 0, len(*path)+1), *path...), m)
			})
			continue
		}
		*onPath = append(*onPath, m.To)
		*path = append(*path, m)
		c.frontier(len(*path))
		t, res, err := idaProbe(p, h, c, m.To, kid.g, bound, path, onPath, fl)
		if err != nil || res != nil {
			return t, res, err
		}
		*path = (*path)[:len(*path)-1]
		*onPath = (*onPath)[:len(*onPath)-1]
		if t < min {
			min = t
		}
	}
	return min, nil, nil
}

// child is one successor of a visit with its g, h and (for RBFS,
// backed-up) f values, the unit IDA* and RBFS order their expansions by. i
// indexes the visit's move list instead of holding the Move, so a children
// slice holds no pointers: the garbage collector never scans the recycled
// slices, and reordering them needs no write barriers.
type child struct {
	i, g, h, f int
}

// compareChildren is the (f, h) order of a visit's children. The h
// tie-break matters for RBFS, whose inheritance rule (f ← max(g+h, parent
// f)) flattens children onto a plateau whenever the heuristic is
// non-monotone: without it the exploration order would degenerate to
// operator enumeration order.
func compareChildren(a, b child) int {
	if a.f != b.f {
		return cmp.Compare(a.f, b.f)
	}
	return cmp.Compare(a.h, b.h)
}

// sortChildren orders a visit's children by compareChildren. The sort is
// stable, so equal children keep their move order. IDA* sorts each visit
// once; RBFS sorts once and then re-inserts the one child whose backed-up
// value changed (reinsertFirst).
func sortChildren(kids []child) {
	slices.SortStableFunc(kids, compareChildren)
}

// reinsertFirst restores the order of kids after RBFS revised kids[0].f,
// given that kids[1:] is still sorted: it swaps kids[0] forward past every
// child that now sorts strictly before it. That is exactly where a stable
// re-sort puts it — only element 0 changed, and it came before every child
// equal to it — and a lowered value leaves it first, as the sort would.
func reinsertFirst(kids []child) {
	for i := 1; i < len(kids) && compareChildren(kids[i], kids[i-1]) < 0; i++ {
		kids[i], kids[i-1] = kids[i-1], kids[i]
	}
}

// childFreeList recycles the children slices of one IDA* or RBFS search
// across visits: both re-expand the same subtrees relentlessly and rebuild
// each visit's children (RBFS's backed-up f-values depend on the inherited
// bound), but the backing arrays can be reused. A search runs on a single
// goroutine, so no locking; each visit pops a slice on entry and pushes it
// back when it returns. The slices hold pointer-free child records.
type childFreeList struct {
	free [][]child
}

func (fl *childFreeList) get(n int) []child {
	if k := len(fl.free); k > 0 {
		s := fl.free[k-1]
		fl.free = fl.free[:k-1]
		return s[:0]
	}
	return make([]child, 0, n)
}

func (fl *childFreeList) put(s []child) {
	if cap(s) > 0 {
		fl.free = append(fl.free, s[:0])
	}
}
