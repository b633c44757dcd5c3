package search

import (
	"strings"
	"testing"
)

// walledGrids are fixed grids whose walls force detours, so the tree
// searches revisit states along cycles (the path check prunes them) and
// through transpositions (distinct paths to one cell), IDA* runs several
// iterations, and RBFS revises backed-up values.
func walledGrids() map[string]gridProblem {
	walls := func(cells ...[2]int) map[[2]int]bool {
		m := make(map[[2]int]bool, len(cells))
		for _, c := range cells {
			m[c] = true
		}
		return m
	}
	return map[string]gridProblem{
		// A wall across the middle with one gap at the far end.
		"barrier": {w: 6, h: 6, start: [2]int{0, 0}, target: [2]int{0, 5},
			walls: walls([2]int{0, 3}, [2]int{1, 3}, [2]int{2, 3}, [2]int{3, 3}, [2]int{4, 3})},
		// Two offset walls that force a zig-zag.
		"zigzag": {w: 6, h: 5, start: [2]int{0, 0}, target: [2]int{5, 4},
			walls: walls([2]int{1, 0}, [2]int{1, 1}, [2]int{1, 2}, [2]int{1, 3},
				[2]int{3, 1}, [2]int{3, 2}, [2]int{3, 3}, [2]int{3, 4})},
		// A cup around the target, open on the far side.
		"cup": {w: 6, h: 6, start: [2]int{0, 2}, target: [2]int{3, 2},
			walls: walls([2]int{2, 1}, [2]int{2, 2}, [2]int{2, 3}, [2]int{3, 1},
				[2]int{3, 3}, [2]int{4, 1}, [2]int{4, 3})},
	}
}

// pathOps renders a solution path as its move names.
func pathOps(path []Move) string {
	ops := make([]string, len(path))
	for i, m := range path {
		ops[i] = m.Op.String()
	}
	return strings.Join(ops, "")
}

// TestTreeSearchBookkeepingPinned pins IDA*'s and RBFS's statistics and
// solution paths on the walled grids: any change to which states the
// searches examine, or in what order they take children, shows here.
func TestTreeSearchBookkeepingPinned(t *testing.T) {
	want := map[string]struct {
		stats Stats
		path  string
	}{
		"barrier/IDA":  {Stats{Examined: 491, Generated: 1506, MaxFrontier: 15, Iterations: 6, Depth: 15}, "SSEEEEESSSWWWWW"},
		"barrier/RBFS": {Stats{Examined: 384, Generated: 1160, MaxFrontier: 15, Depth: 15}, "SEEEESESSSWWWWW"},
		"zigzag/IDA":   {Stats{Examined: 52, Generated: 101, MaxFrontier: 17, Iterations: 5, Depth: 17}, "SSSSEENNNNEESSSSE"},
		"zigzag/RBFS":  {Stats{Examined: 18, Generated: 37, MaxFrontier: 17, Depth: 17}, "SSSSEENNNNEESSSSE"},
		"cup/IDA":      {Stats{Examined: 172, Generated: 491, MaxFrontier: 11, Iterations: 5, Depth: 11}, "ENNEEEESSWW"},
		"cup/RBFS":     {Stats{Examined: 193, Generated: 562, MaxFrontier: 11, Depth: 11}, "SSEEEEENNWW"},
	}
	grids := walledGrids()
	for _, name := range []string{"barrier", "zigzag", "cup"} {
		p := grids[name]
		for _, algo := range []Algorithm{IDA, RBFS} {
			t.Run(name+"/"+algo.String(), func(t *testing.T) {
				res, err := Run(algo, p, p.manhattan(), Limits{})
				if err != nil {
					t.Fatal(err)
				}
				w := want[name+"/"+algo.String()]
				if res.Stats != w.stats {
					t.Errorf("stats = %+v, want %+v", res.Stats, w.stats)
				}
				if got := pathOps(res.Path); got != w.path {
					t.Errorf("path = %s, want %s", got, w.path)
				}
			})
		}
	}
}
