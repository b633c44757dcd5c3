package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// intState is a trivial State for toy problems.
type intState int

func (s intState) String() string { return fmt.Sprintf("%d", int(s)) }

// run is RunContext under a context that is never cancelled.
func run(a Algorithm, p Problem, h Heuristic, lim Limits) (*Result, error) {
	return RunContext(context.Background(), a, p, h, lim)
}

// opName is a test operator whose text is its name.
type opName string

func (o opName) String() string { return string(o) }

// lineProblem is a path graph 0 — 1 — ... — n with the goal at n.
type lineProblem struct{ n int }

func (p lineProblem) Start() State { return intState(0) }
func (p lineProblem) Successors(s State) ([]Move, error) {
	i := int(s.(intState))
	var out []Move
	if i > 0 {
		out = append(out, Move{Op: opName("back"), To: intState(i - 1), Cost: 1})
	}
	if i < p.n {
		out = append(out, Move{Op: opName("fwd"), To: intState(i + 1), Cost: 1})
	}
	return out, nil
}
func (p lineProblem) IsGoal(s State) bool { return int(s.(intState)) == p.n }

func lineHeuristic(p lineProblem) Heuristic {
	return func(s State) int { return p.n - int(s.(intState)) }
}

func TestAllAlgorithmsSolveLine(t *testing.T) {
	p := lineProblem{n: 12}
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		t.Run(algo.String(), func(t *testing.T) {
			res, err := run(algo, p, lineHeuristic(p), Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Path) != 12 {
				t.Fatalf("path length = %d, want 12", len(res.Path))
			}
			if !p.IsGoal(res.Goal) {
				t.Fatal("returned non-goal state")
			}
			if res.Stats.Examined == 0 || res.Stats.Depth != 12 {
				t.Fatalf("stats = %+v", res.Stats)
			}
		})
	}
}

func TestPerfectHeuristicExaminesLinearly(t *testing.T) {
	p := lineProblem{n: 20}
	res, err := idaStar(context.Background(), p, lineHeuristic(p), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// With an exact heuristic, IDA examines each on-path state once.
	if res.Stats.Examined > p.n+1 {
		t.Fatalf("IDA with perfect heuristic examined %d states, want ≤ %d", res.Stats.Examined, p.n+1)
	}
	if res.Stats.Iterations != 1 {
		t.Fatalf("IDA iterations = %d, want 1", res.Stats.Iterations)
	}
}

func TestBlindSearchExaminesMore(t *testing.T) {
	// An open grid has real branching, so h0 (blind) must examine more
	// states than an informed heuristic — the phenomenon behind the h0
	// curves in the paper's Figs. 5–9.
	p := gridProblem{w: 6, h: 6, walls: map[[2]int]bool{}, start: [2]int{0, 0}, target: [2]int{5, 5}}
	blind := func(State) int { return 0 }
	for _, algo := range []Algorithm{IDA, RBFS} {
		resBlind, err := run(algo, p, blind, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		resExact, err := run(algo, p, p.manhattan(), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if resBlind.Stats.Examined <= resExact.Stats.Examined {
			t.Fatalf("%s: blind examined %d, informed %d — heuristic should help",
				algo, resBlind.Stats.Examined, resExact.Stats.Examined)
		}
	}
}

func TestStartIsGoal(t *testing.T) {
	p := lineProblem{n: 0}
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		res, err := run(algo, p, lineHeuristic(p), Limits{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Path) != 0 {
			t.Fatalf("%s: path = %v, want empty", algo, res.Path)
		}
	}
}

// TestAbortedRunsReportZeroDepth: Stats.Depth documents "the length of the
// solution path found", so a failed run reports 0 from every algorithm.
// IDAStar used to leak the in-flight probe depth into Stats.Depth on abort.
func TestAbortedRunsReportZeroDepth(t *testing.T) {
	p := lineProblem{n: 1000}
	blind := func(State) int { return 0 }
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		t.Run(algo.String(), func(t *testing.T) {
			_, err := run(algo, p, blind, Limits{MaxStates: 25})
			if !errors.Is(err, ErrLimit) {
				t.Fatalf("err = %v, want ErrLimit", err)
			}
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("err = %T, want *Error", err)
			}
			if serr.Stats.Depth != 0 {
				t.Fatalf("aborted %s reported Depth = %d, want 0 (no solution path was found)",
					algo, serr.Stats.Depth)
			}
		})
	}
}

// deadEndProblem has no goal at all.
type deadEndProblem struct{}

func (deadEndProblem) Start() State { return intState(0) }
func (deadEndProblem) Successors(s State) ([]Move, error) {
	if int(s.(intState)) < 3 {
		return []Move{{Op: opName("next"), To: s.(intState) + 1, Cost: 1}}, nil
	}
	return nil, nil
}
func (deadEndProblem) IsGoal(State) bool { return false }

func TestNotFound(t *testing.T) {
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		_, err := run(algo, deadEndProblem{}, func(State) int { return 0 }, Limits{})
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: err = %v, want ErrNotFound", algo, err)
		}
	}
}

func TestMaxStatesLimit(t *testing.T) {
	p := lineProblem{n: 1000}
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		_, err := run(algo, p, func(State) int { return 0 }, Limits{MaxStates: 50})
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("%s: err = %v, want ErrLimit", algo, err)
		}
	}
}

func TestSuccessorErrorPropagates(t *testing.T) {
	p := errProblem{}
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		_, err := run(algo, p, func(State) int { return 1 }, Limits{})
		if err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: err = %v, want successor error", algo, err)
		}
	}
}

type errProblem struct{}

func (errProblem) Start() State                     { return intState(0) }
func (errProblem) Successors(State) ([]Move, error) { return nil, errors.New("boom") }
func (errProblem) IsGoal(State) bool                { return false }

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := run(Algorithm(99), lineProblem{n: 1}, nil, Limits{}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if got := Algorithm(99).String(); got != "Algorithm(99)" {
		t.Fatalf("String = %q", got)
	}
}

// gridProblem is a 2-D grid with walls; moves are 4-directional. A move
// costs 1 plus the mud of the cell it enters.
type gridProblem struct {
	w, h          int
	walls         map[[2]int]bool
	mud           map[[2]int]int
	start, target [2]int
}

type gridState [2]int

func (s gridState) String() string { return fmt.Sprintf("%d,%d", s[0], s[1]) }

func (p gridProblem) Start() State { return gridState(p.start) }
func (p gridProblem) IsGoal(s State) bool {
	return [2]int(s.(gridState)) == p.target
}
func (p gridProblem) Successors(s State) ([]Move, error) {
	pos := s.(gridState)
	dirs := []struct {
		name string
		d    [2]int
	}{{"N", [2]int{0, -1}}, {"S", [2]int{0, 1}}, {"W", [2]int{-1, 0}}, {"E", [2]int{1, 0}}}
	var out []Move
	for _, dir := range dirs {
		nx, ny := pos[0]+dir.d[0], pos[1]+dir.d[1]
		if nx < 0 || ny < 0 || nx >= p.w || ny >= p.h || p.walls[[2]int{nx, ny}] {
			continue
		}
		out = append(out, Move{Op: opName(dir.name), To: gridState{nx, ny}, Cost: 1 + p.mud[[2]int{nx, ny}]})
	}
	return out, nil
}

func (p gridProblem) manhattan() Heuristic {
	return func(s State) int {
		pos := s.(gridState)
		dx := pos[0] - p.target[0]
		if dx < 0 {
			dx = -dx
		}
		dy := pos[1] - p.target[1]
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
}

// bfsLen computes the optimal path length by breadth-first search, as the
// reference for optimality checks.
func bfsLen(p gridProblem) int {
	type qe struct {
		pos [2]int
		d   int
	}
	seen := map[[2]int]bool{p.start: true}
	queue := []qe{{p.start, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.pos == p.target {
			return cur.d
		}
		st := gridState(cur.pos)
		moves, _ := p.Successors(st)
		for _, m := range moves {
			np := [2]int(m.To.(gridState))
			if !seen[np] {
				seen[np] = true
				queue = append(queue, qe{np, cur.d + 1})
			}
		}
	}
	return -1
}

// Admissible heuristics must make IDA, RBFS, and A* return optimal paths.
func TestPropertyOptimalityOnRandomGrids(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gridProblem{w: 6, h: 6, walls: map[[2]int]bool{}}
		for i := 0; i < 8; i++ {
			p.walls[[2]int{rng.Intn(6), rng.Intn(6)}] = true
		}
		p.start = [2]int{0, 0}
		p.target = [2]int{5, 5}
		delete(p.walls, p.start)
		delete(p.walls, p.target)
		want := bfsLen(p)
		for _, algo := range []Algorithm{IDA, RBFS, AStar} {
			res, err := run(algo, p, p.manhattan(), Limits{})
			if want < 0 {
				if !errors.Is(err, ErrNotFound) {
					return false
				}
				continue
			}
			if err != nil || len(res.Path) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Paths returned by every algorithm must be valid move sequences from start
// to a goal state.
func TestPropertyPathValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gridProblem{w: 5, h: 5, walls: map[[2]int]bool{}}
		for i := 0; i < 5; i++ {
			p.walls[[2]int{rng.Intn(5), rng.Intn(5)}] = true
		}
		p.start = [2]int{0, 0}
		p.target = [2]int{4, 4}
		delete(p.walls, p.start)
		delete(p.walls, p.target)
		if bfsLen(p) < 0 {
			return true
		}
		for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
			res, err := run(algo, p, p.manhattan(), Limits{})
			if err != nil {
				return false
			}
			cur := p.Start()
			for _, m := range res.Path {
				moves, _ := p.Successors(cur)
				ok := false
				for _, cand := range moves {
					if cand.Op == m.Op && cand.To == m.To {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
				cur = m.To
			}
			if !p.IsGoal(cur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// RBFS should generally examine no more states than IDA on the same
// problem (the paper's overall finding); verify on a grid ensemble in
// aggregate rather than per-instance, since individual instances can go
// either way.
func TestRBFSCompetitiveWithIDA(t *testing.T) {
	var totalIDA, totalRBFS int
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gridProblem{w: 7, h: 7, walls: map[[2]int]bool{}}
		for i := 0; i < 10; i++ {
			p.walls[[2]int{rng.Intn(7), rng.Intn(7)}] = true
		}
		p.start = [2]int{0, 0}
		p.target = [2]int{6, 6}
		delete(p.walls, p.start)
		delete(p.walls, p.target)
		if bfsLen(p) < 0 {
			continue
		}
		ri, err := idaStar(context.Background(), p, p.manhattan(), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := recursiveBestFirst(context.Background(), p, p.manhattan(), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		totalIDA += ri.Stats.Examined
		totalRBFS += rr.Stats.Examined
	}
	if totalRBFS > totalIDA*3 {
		t.Fatalf("RBFS examined %d vs IDA %d — far worse than expected", totalRBFS, totalIDA)
	}
}

func TestAStarTracksFrontier(t *testing.T) {
	p := lineProblem{n: 5}
	res, err := run(AStar, p, lineHeuristic(p), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxFrontier == 0 {
		t.Fatal("MaxFrontier not tracked")
	}
}
