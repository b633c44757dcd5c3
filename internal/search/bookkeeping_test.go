package search

import (
	"errors"
	"fmt"
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
		// Scattered walls and mud, the target itself in mud: a visit's
		// children differ in g, so (f, h) order can put a child with a
		// lower h after one with a higher h.
		"mud": {w: 6, h: 6, start: [2]int{0, 0}, target: [2]int{5, 5},
			walls: walls([2]int{4, 0}, [2]int{5, 1}, [2]int{2, 2}, [2]int{1, 3},
				[2]int{2, 3}, [2]int{2, 5}),
			mud: map[[2]int]int{{1, 2}: 3, {1, 4}: 1, {1, 5}: 1, {2, 4}: 1,
				{3, 4}: 1, {5, 3}: 1, {5, 5}: 3}},
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
				res, err := run(algo, p, p.manhattan(), Limits{})
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

// bestEffortOutcome renders what a budgeted run hands back: the goal it
// reached, or the partial's state, H and path; with the run's MaxFrontier.
func bestEffortOutcome(res *Result, err error) string {
	if err == nil {
		return fmt.Sprintf("goal %s %s frontier=%d", res.Goal, pathOps(res.Path), res.Stats.MaxFrontier)
	}
	var se *Error
	if !errors.As(err, &se) || se.Partial == nil {
		return "error " + err.Error()
	}
	p := se.Partial
	return fmt.Sprintf("%s h=%d %s frontier=%d", p.State, p.H, pathOps(p.Path), se.Stats.MaxFrontier)
}

// TestTreeSearchBestEffortPartialsPinned pins what IDA* and RBFS hand back
// under BestEffort when a state budget stops them on the walled grids: the
// best partial's state, H and path and the run's MaxFrontier, or the goal
// where the budget suffices. IDA* offers a child over its bound without
// entering it, so these pin that every such child is still offered.
func TestTreeSearchBestEffortPartialsPinned(t *testing.T) {
	want := map[string]string{
		"barrier/IDA/3":    "0,2 h=3 SS frontier=3",
		"barrier/IDA/7":    "0,2 h=3 SS frontier=4",
		"barrier/IDA/20":   "0,2 h=3 SS frontier=5",
		"barrier/IDA/50":   "0,2 h=3 SS frontier=7",
		"barrier/IDA/120":  "0,2 h=3 SS frontier=9",
		"barrier/IDA/300":  "0,2 h=3 SS frontier=11",
		"barrier/RBFS/3":   "0,2 h=3 SS frontier=3",
		"barrier/RBFS/7":   "0,2 h=3 SS frontier=4",
		"barrier/RBFS/20":  "0,2 h=3 SS frontier=5",
		"barrier/RBFS/50":  "0,2 h=3 SS frontier=6",
		"barrier/RBFS/120": "0,2 h=3 SS frontier=8",
		"barrier/RBFS/300": "0,2 h=3 SS frontier=10",
		"zigzag/IDA/3":     "0,3 h=6 SSS frontier=3",
		"zigzag/IDA/7":     "2,4 h=3 SSSSEE frontier=7",
		"zigzag/IDA/20":    "2,4 h=3 SSSSEE frontier=8",
		"zigzag/IDA/50":    "4,4 h=1 SSSSEENNNNEESSSS frontier=16",
		"zigzag/IDA/120":   "goal 5,4 SSSSEENNNNEESSSSE frontier=17",
		"zigzag/IDA/300":   "goal 5,4 SSSSEENNNNEESSSSE frontier=17",
		"zigzag/RBFS/3":    "0,3 h=6 SSS frontier=3",
		"zigzag/RBFS/7":    "2,4 h=3 SSSSEE frontier=7",
		"zigzag/RBFS/20":   "goal 5,4 SSSSEENNNNEESSSSE frontier=17",
		"zigzag/RBFS/50":   "goal 5,4 SSSSEENNNNEESSSSE frontier=17",
		"zigzag/RBFS/120":  "goal 5,4 SSSSEENNNNEESSSSE frontier=17",
		"zigzag/RBFS/300":  "goal 5,4 SSSSEENNNNEESSSSE frontier=17",
		"cup/IDA/3":        "1,2 h=2 E frontier=2",
		"cup/IDA/7":        "1,2 h=2 E frontier=3",
		"cup/IDA/20":       "1,2 h=2 E frontier=6",
		"cup/IDA/50":       "1,2 h=2 E frontier=6",
		"cup/IDA/120":      "1,2 h=2 E frontier=8",
		"cup/IDA/300":      "goal 3,2 ENNEEEESSWW frontier=11",
		"cup/RBFS/3":       "1,2 h=2 E frontier=2",
		"cup/RBFS/7":       "1,2 h=2 E frontier=3",
		"cup/RBFS/20":      "1,2 h=2 E frontier=5",
		"cup/RBFS/50":      "1,2 h=2 E frontier=6",
		"cup/RBFS/120":     "1,2 h=2 E frontier=7",
		"cup/RBFS/300":     "goal 3,2 SSEEEEENNWW frontier=11",
		"mud/IDA/3":        "0,3 h=7 SSS frontier=3",
		"mud/IDA/7":        "1,5 h=4 SSSSSE frontier=6",
		"mud/IDA/20":       "5,5 h=0 SEEESSESSE frontier=10",
		"mud/IDA/50":       "5,5 h=0 SEEESSESSE frontier=10",
		"mud/IDA/120":      "5,5 h=0 SEEESSESSE frontier=10",
		"mud/IDA/300":      "5,5 h=0 SEEESSESSE frontier=11",
		"mud/RBFS/3":       "0,3 h=7 SSS frontier=3",
		"mud/RBFS/7":       "1,5 h=4 SSSSSE frontier=5",
		"mud/RBFS/20":      "5,5 h=0 SEEESSESSE frontier=9",
		"mud/RBFS/50":      "5,5 h=0 SEEESSESSE frontier=9",
		"mud/RBFS/120":     "5,5 h=0 SEEESSESSE frontier=9",
		"mud/RBFS/300":     "5,5 h=0 SEEESSESSE frontier=11",
	}
	grids := walledGrids()
	for _, name := range []string{"barrier", "zigzag", "cup", "mud"} {
		p := grids[name]
		for _, algo := range []Algorithm{IDA, RBFS} {
			for _, budget := range []int{3, 7, 20, 50, 120, 300} {
				id := fmt.Sprintf("%s/%s/%d", name, algo, budget)
				t.Run(id, func(t *testing.T) {
					res, err := run(algo, p, p.manhattan(), Limits{MaxStates: budget, BestEffort: true})
					if got := bestEffortOutcome(res, err); got != want[id] {
						t.Errorf("got %q, want %q", got, want[id])
					}
				})
			}
		}
	}
}
