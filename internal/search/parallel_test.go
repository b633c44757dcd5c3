package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// parallelWorkerCounts is the sweep every equivalence test runs: the single
// shard (channel-free ownership, same quiescence semantics) plus genuinely
// concurrent shard counts.
var parallelWorkerCounts = []int{1, 2, 4}

// settleGoroutines waits for the goroutine count to return to (at most) the
// baseline, failing the test if shard workers leak past a generous deadline.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestParallelAStarEquivalence pins the tentpole acceptance property: the
// same mapping (goal state and solution cost) across Workers ∈ {1,2,4}, with
// bounded states-examined variance relative to sequential A*. The exact
// move sequence may differ between worker counts when several optimal paths
// reach the same goal (arrival order decides which duplicate the owning
// shard keeps), so the assertions are on goal identity and cost, not labels.
func TestParallelAStarEquivalence(t *testing.T) {
	p := gridProblem{
		w: 16, h: 16,
		walls:  map[[2]int]bool{{4, 4}: true, {4, 5}: true, {4, 6}: true, {5, 6}: true, {10, 2}: true, {10, 3}: true, {9, 9}: true, {8, 9}: true},
		start:  [2]int{0, 0},
		target: [2]int{15, 15},
	}
	seq, err := AStarSearch(context.Background(), p, p.manhattan(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range parallelWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := ParallelAStar(context.Background(), p, p.manhattan(), Limits{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if res.Goal.Key() != seq.Goal.Key() {
				t.Fatalf("goal = %s, sequential found %s", res.Goal.Key(), seq.Goal.Key())
			}
			if len(res.Path) != len(seq.Path) {
				t.Fatalf("cost = %d, sequential cost %d — parallel A* must stay optimal", len(res.Path), len(seq.Path))
			}
			if res.Stats.Depth != seq.Stats.Depth {
				t.Fatalf("depth = %d, want %d", res.Stats.Depth, seq.Stats.Depth)
			}
			// Replay the path: it must be a real walk from start to goal.
			cur := p.Start()
			for i, m := range res.Path {
				moves, err := p.Successors(cur)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, cand := range moves {
					if cand.Op == m.Op && cand.To.Key() == m.To.Key() {
						cur, found = cand.To, true
						break
					}
				}
				if !found {
					t.Fatalf("path step %d (%s → %s) is not a legal move", i, m.Op, m.To.Key())
				}
			}
			if !p.IsGoal(cur) {
				t.Fatalf("path replay ends at %s, not a goal", cur.Key())
			}
			// Speculative expansion may examine extra states (the frontier
			// keeps moving until quiescence confirms the incumbent), but the
			// incumbent bound caps the blow-up: stay within a small factor
			// of the sequential count.
			if res.Stats.Examined > 4*seq.Stats.Examined+16 {
				t.Fatalf("examined %d states, sequential examined %d — variance out of bounds",
					res.Stats.Examined, seq.Stats.Examined)
			}
			if res.Stats.Generated == 0 || res.Stats.MaxFrontier == 0 {
				t.Fatalf("stats not aggregated: %+v", res.Stats)
			}
		})
	}
}

// TestParallelAStarDeterministicTieBreak: with a unique optimal path the
// returned operators are identical for every worker count — the incumbent
// tie-break (min cost, then lexicographically least operator text) removes
// the scheduling dependence whenever the optimum is unique.
func TestParallelAStarDeterministicTieBreak(t *testing.T) {
	p := lineProblem{n: 40}
	want := strings.Repeat("fwd,", 40)
	for _, workers := range parallelWorkerCounts {
		res, err := ParallelAStar(context.Background(), p, lineHeuristic(p), Limits{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got strings.Builder
		for _, m := range res.Path {
			got.WriteString(m.Op.String())
			got.WriteString(",")
		}
		if got.String() != want {
			t.Fatalf("workers=%d: path %q, want %q", workers, got.String(), want)
		}
	}
}

// TestParallelAStarQuiescenceOnExhaustion: a walled-off target is the acid
// test for distributed termination — no goal ever arrives, so only the
// credit counter reaching zero (every shard idle, no message in flight) can
// end the run, and it must end with ErrNotFound, not hang.
func TestParallelAStarQuiescenceOnExhaustion(t *testing.T) {
	walls := map[[2]int]bool{}
	for i := 0; i < 8; i++ { // wall off the right half
		walls[[2]int{4, i}] = true
	}
	p := gridProblem{w: 8, h: 8, walls: walls, start: [2]int{0, 0}, target: [2]int{7, 7}}
	for _, workers := range parallelWorkerCounts {
		done := make(chan struct{})
		var res *Result
		var err error
		go func() {
			res, err = ParallelAStar(context.Background(), p, p.manhattan(), Limits{}, workers)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: quiescence never detected (run hung)", workers)
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("workers=%d: err = %v, want ErrNotFound", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: res = %+v, want nil", workers, res)
		}
	}
}

// TestParallelAStarStartIsGoal: the degenerate run must quiesce immediately
// with an empty path on every worker count.
func TestParallelAStarStartIsGoal(t *testing.T) {
	p := lineProblem{n: 0}
	for _, workers := range parallelWorkerCounts {
		res, err := ParallelAStar(context.Background(), p, lineHeuristic(p), Limits{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Path) != 0 {
			t.Fatalf("workers=%d: path = %v, want empty", workers, res.Path)
		}
	}
}

// TestParallelAStarMaxStates: the examined budget is global, and blowing it
// aborts with the same refined limit error the sequential engines report.
func TestParallelAStarMaxStates(t *testing.T) {
	p := lineProblem{n: 10_000}
	blind := func(State) int { return 0 }
	for _, workers := range parallelWorkerCounts {
		_, err := ParallelAStar(context.Background(), p, blind, Limits{MaxStates: 50}, workers)
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("workers=%d: err = %v, want ErrLimit", workers, err)
		}
		var serr *Error
		if !errors.As(err, &serr) || serr.Cause() != "limit" {
			t.Fatalf("workers=%d: cause = %v", workers, err)
		}
	}
}

// TestParallelAStarCancelMidSearch: cancelling the context mid-run aborts
// with the canceled cause and every shard goroutine settles — nothing stays
// blocked on a routing channel.
func TestParallelAStarCancelMidSearch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := gridProblem{w: 200, h: 200, walls: map[[2]int]bool{}, start: [2]int{0, 0}, target: [2]int{199, 199}}
	var tested atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the heuristic after a few hundred evaluations, so
	// the abort lands while shards are actively routing.
	h := func(s State) int {
		if tested.Add(1) == 500 {
			cancel()
		}
		return 0
	}
	for _, workers := range []int{2, 4} {
		tested.Store(0)
		ctx, cancel = context.WithCancel(context.Background())
		_, err := ParallelAStar(ctx, p, h, Limits{}, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		var serr *Error
		if !errors.As(err, &serr) || serr.Cause() != "canceled" {
			t.Fatalf("workers=%d: cause = %v", workers, err)
		}
		settleGoroutines(t, baseline)
	}
}

// panicOnKeyProblem panics while expanding one specific state — the shard
// that owns it blows up mid-run.
type panicOnKeyProblem struct {
	gridProblem
	key string
}

func (p panicOnKeyProblem) Successors(s State) ([]Move, error) {
	if s.Key() == p.key {
		panic("injected shard fault")
	}
	return p.gridProblem.Successors(s)
}

// TestParallelAStarPanicContainment: a panic inside one shard worker is
// converted to the search error taxonomy (cause "panic", origin naming the
// shard), the other shards shut down, and no goroutine leaks.
func TestParallelAStarPanicContainment(t *testing.T) {
	baseline := runtime.NumGoroutine()
	grid := gridProblem{w: 50, h: 50, walls: map[[2]int]bool{}, start: [2]int{0, 0}, target: [2]int{49, 49}}
	p := panicOnKeyProblem{gridProblem: grid, key: "25,25"}
	for _, workers := range parallelWorkerCounts {
		_, err := ParallelAStar(context.Background(), p, grid.manhattan(), Limits{}, workers)
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		var serr *Error
		if !errors.As(err, &serr) || serr.Cause() != "panic" {
			t.Fatalf("workers=%d: cause = %v, want panic", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || !strings.Contains(pe.Origin, "parallel shard worker") {
			t.Fatalf("workers=%d: origin = %v, want a shard worker origin", workers, err)
		}
		settleGoroutines(t, baseline)
	}
}

// TestParallelAStarBestEffort: an aborted parallel run still surfaces the
// best candidate seen so far, exactly like the sequential engines.
func TestParallelAStarBestEffort(t *testing.T) {
	p := lineProblem{n: 10_000}
	for _, workers := range parallelWorkerCounts {
		_, err := ParallelAStar(context.Background(), p, lineHeuristic(p), Limits{MaxStates: 40, BestEffort: true}, workers)
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("workers=%d: err = %v, want ErrLimit", workers, err)
		}
		var serr *Error
		if !errors.As(err, &serr) {
			t.Fatalf("workers=%d: err = %T", workers, err)
		}
		part := serr.Partial
		if part == nil {
			t.Fatalf("workers=%d: no partial result", workers)
		}
		if part.H >= 10_000 {
			t.Fatalf("workers=%d: partial made no progress (h = %d)", workers, part.H)
		}
		if len(part.Path) == 0 {
			t.Fatalf("workers=%d: partial path empty", workers)
		}
	}
}

// TestParallelGreedyFindsGoal: the greedy variant shares the engine; on a
// problem with an exact heuristic it walks straight to the goal.
func TestParallelGreedyFindsGoal(t *testing.T) {
	p := lineProblem{n: 30}
	for _, workers := range parallelWorkerCounts {
		res, err := ParallelGreedySearch(context.Background(), p, lineHeuristic(p), Limits{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !p.IsGoal(res.Goal) {
			t.Fatalf("workers=%d: non-goal result", workers)
		}
	}
}

// TestParallelAStarConcurrentRouting drives heavy cross-shard traffic (a
// dense open grid where every neighbour hashes to an arbitrary shard) under
// the race detector; the assertions are the result invariants, the real
// check is -race finding no data race in routing/outbox/quiescence.
func TestParallelAStarConcurrentRouting(t *testing.T) {
	p := gridProblem{w: 60, h: 60, walls: map[[2]int]bool{}, start: [2]int{0, 0}, target: [2]int{59, 59}}
	res, err := ParallelAStar(context.Background(), p, p.manhattan(), Limits{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) != 118 {
		t.Fatalf("cost = %d, want 118", len(res.Path))
	}
	if res.Stats.Examined == 0 || res.Stats.Generated < res.Stats.Examined {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
}

// TestShardOfPartitions: every key lands on exactly one shard, in range, and
// the assignment is stable.
func TestShardOfPartitions(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("state-%d", i)
		s := shardOf(k, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shardOf(%q, 4) = %d, out of range", k, s)
		}
		if s != shardOf(k, 4) {
			t.Fatalf("shardOf(%q) unstable", k)
		}
		counts[s]++
	}
	for i, c := range counts {
		if c < 512 { // 4096/4 = 1024 expected; catch gross skew only
			t.Fatalf("shard %d got %d of 4096 keys — hash badly skewed: %v", i, c, counts)
		}
	}
}
