package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"tupelo/internal/datagen"
	"tupelo/internal/obs"
	"tupelo/internal/search"
)

// TestParallelSearchDiscoverEquivalent pins the discovery-level acceptance
// criterion: Options.ParallelSearch with Workers ∈ {1,2,4} finds a mapping
// with the same moves and cost as the one sequential A* finds, and that
// mapping reaches the target. Only the single-shard run is deterministic,
// so only it is held to sequential A*'s states-examined count, exactly;
// with more shards the count depends on how the OS schedules them, and the
// test asserts only what scheduling cannot change.
func TestParallelSearchDiscoverEquivalent(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	seq, err := Discover(src, tgt, Options{Algorithm: search.AStar})
	if err != nil {
		t.Fatal(err)
	}
	// The workload's optimal moves commute (independent renames), so every
	// permutation is an optimal mapping; compare the move multiset and the
	// cost, not the order — DESIGN.md §10 documents exactly this caveat.
	want := sortedLines(seq.Expr.String())
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := Discover(src, tgt, Options{ParallelSearch: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != search.AStar {
				t.Fatalf("algorithm = %v, want AStar (ParallelSearch default)", res.Algorithm)
			}
			if got := sortedLines(res.Expr.String()); got != want {
				t.Fatalf("expr moves = %q, sequential found %q", got, want)
			}
			if res.Stats.Depth != seq.Stats.Depth {
				t.Fatalf("path length %d, sequential %d", res.Stats.Depth, seq.Stats.Depth)
			}
			// One shard expands nodes in sequential A*'s order. With more,
			// the others examine their local best nodes while the goal path
			// hops shard to shard, by an amount the scheduler decides.
			if workers == 1 && res.Stats.Examined != seq.Stats.Examined {
				t.Fatalf("examined %d, sequential %d", res.Stats.Examined, seq.Stats.Examined)
			}
			out, err := res.Apply(src, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Contains(tgt) {
				t.Fatal("discovered expression does not reach the target")
			}
		})
	}
}

// TestParallelSearchNormalization: unset algorithm resolves to AStar, tree
// searches and the cycle-check ablation are rejected up front.
func TestParallelSearchNormalization(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	if _, err := Discover(src, tgt, Options{ParallelSearch: true, Algorithm: search.RBFS}); err == nil {
		t.Fatal("ParallelSearch with RBFS should be rejected")
	}
	if _, err := Discover(src, tgt, Options{ParallelSearch: true, Algorithm: search.IDA}); err == nil {
		t.Fatal("ParallelSearch with IDA should be rejected")
	}
	if _, err := Discover(src, tgt, Options{ParallelSearch: true, DisableCycleCheck: true}); err == nil {
		t.Fatal("ParallelSearch with DisableCycleCheck should be rejected")
	}
	res, err := Discover(src, tgt, Options{ParallelSearch: true, Algorithm: search.Greedy, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != search.Greedy {
		t.Fatalf("algorithm = %v, want Greedy", res.Algorithm)
	}
}

// TestParallelSearchDefaultOptions: DefaultOptions() is Options{}, so both
// spellings resolve an unset algorithm under ParallelSearch to A* and run
// the identical search.
func TestParallelSearchDefaultOptions(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(3)
	zero, err := Discover(src, tgt, Options{ParallelSearch: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ParallelSearch, opts.Workers = true, 1
	def, err := Discover(src, tgt, opts)
	if err != nil {
		t.Fatalf("DefaultOptions() with ParallelSearch: %v", err)
	}
	if def.Expr.String() != zero.Expr.String() || def.Stats != zero.Stats {
		t.Fatalf("DefaultOptions() found %q with %+v; Options{} found %q with %+v",
			def.Expr, def.Stats, zero.Expr, zero.Stats)
	}
}

// TestParallelSearchShardMetrics: a sharded run populates the per-shard
// search.shard.* counters and the aggregate search counters.
func TestParallelSearchShardMetrics(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	reg := obs.NewRegistry()
	if _, err := Discover(src, tgt, Options{ParallelSearch: true, Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var shardExamined, routed int64
	for name, v := range snap.Counters {
		switch {
		case hasPrefixName(name, "search.shard.examined"):
			shardExamined += v
		case hasPrefixName(name, "search.shard.routed"):
			routed += v
		}
	}
	if shardExamined == 0 {
		t.Fatalf("no search.shard.examined counts in %v", snap.Counters)
	}
	total := snap.Counters[obs.Name("search.examined", "algo", "PA*")]
	if shardExamined != total {
		t.Fatalf("shard examined sum %d != aggregate %d", shardExamined, total)
	}
	_ = routed // routed may legitimately be 0 on a tiny workload; presence is not required
	if snap.Counters["core.succmemo.misses"] == 0 {
		t.Fatal("sharded run recorded no memo misses — memo counters not wired")
	}
}

// TestMemoCountersAndSampling pins the satellite bugfix: with metrics only
// (no Tracer) the successor memo stays on, and the new hit/miss counters
// expose how many expansions the per-op apply metrics actually sampled. The
// state table's estimate lookups report under heuristic.cache.*: on a
// sequential run every miss evaluates once and publishes once.
func TestMemoCountersAndSampling(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	reg := obs.NewRegistry()
	// IDA* re-expands every shallower state on each deepening iteration, so
	// revisits — the memo's reason to exist — are structural, not workload
	// luck.
	opts, err := Options{Algorithm: search.IDA, Metrics: reg, Workers: 1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(src, tgt, opts); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	hits := snap.Counters["core.succmemo.hits"]
	misses := snap.Counters["core.succmemo.misses"]
	if misses == 0 {
		t.Fatal("no memo misses recorded")
	}
	if hits == 0 {
		t.Fatal("no memo hits recorded — IDA deepening should revisit states")
	}
	label := cacheLabel(opts)
	hHits := snap.Counters[obs.Name("heuristic.cache.hits", "cache", label)]
	hMisses := snap.Counters[obs.Name("heuristic.cache.misses", "cache", label)]
	entries := snap.Gauges[obs.Name("heuristic.cache.entries", "cache", label)]
	evals := snap.Histograms[obs.Name("heuristic.eval.seconds", "heuristic", label)].Count
	if hHits == 0 || hMisses == 0 {
		t.Fatalf("heuristic.cache hits/misses = %d/%d, want both > 0", hHits, hMisses)
	}
	if entries != hMisses || evals != hMisses {
		t.Fatalf("heuristic.cache misses = %d, entries = %d, evaluations = %d; want all equal", hMisses, entries, evals)
	}
}

// TestMemoStaysOnUnderTracer: the undercount fix keeps the memo enabled for
// traced runs (only FaultHook disables it) and emits memo events instead.
func TestMemoStaysOnUnderTracer(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	col := obs.NewCollector()
	if _, err := Discover(src, tgt, Options{Algorithm: search.IDA, Tracer: col}); err != nil {
		t.Fatal(err)
	}
	var memoHits, memoMisses int
	for _, e := range col.Events() {
		switch e.Kind {
		case obs.EvMemoHit:
			memoHits++
		case obs.EvMemoMiss:
			memoMisses++
		}
	}
	if memoMisses == 0 {
		t.Fatal("traced run emitted no EvMemoMiss — memo disabled under Tracer?")
	}
	if memoHits == 0 {
		t.Fatal("traced run emitted no EvMemoHit")
	}
}

// TestParallelSearchBestEffort: a budget-truncated parallel discovery
// degrades to a partial result exactly like the sequential engines.
func TestParallelSearchBestEffort(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(10)
	res, err := Discover(src, tgt, Options{
		ParallelSearch: true,
		Workers:        2,
		Limits:         search.Limits{MaxStates: 3, BestEffort: true},
	})
	if err != nil {
		t.Fatalf("best-effort parallel run should degrade, got %v", err)
	}
	if !res.Partial {
		t.Fatal("expected a partial result")
	}
	if !errors.Is(res.AbortErr, search.ErrLimit) {
		t.Fatalf("AbortErr = %v, want ErrLimit", res.AbortErr)
	}
}

// hasPrefixName matches a metric's base name ignoring its label suffix
// (obs.Name encodes labels into the string).
func hasPrefixName(name, prefix string) bool {
	return len(name) >= len(prefix) && name[:len(prefix)] == prefix
}

// sortedLines canonicalizes an expression whose moves commute: same lines,
// any order.
func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
