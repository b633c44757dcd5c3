package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"tupelo/internal/datagen"
	"tupelo/internal/faults"
	"tupelo/internal/heuristic"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// examineRecorder wraps a mapping problem to record every state the search
// examines (goal-tests); shard workers of a parallel search record
// concurrently.
type examineRecorder struct {
	*mappingProblem
	mu       sync.Mutex
	examined map[*dbState]bool
}

func (r *examineRecorder) IsGoal(s search.State) bool {
	r.mu.Lock()
	r.examined[s.(*dbState)] = true
	r.mu.Unlock()
	return r.mappingProblem.IsGoal(s)
}

// TestMemoTableMatchesScratch checks the facts the state table hands the
// search against recomputation, for every state the search examined: the
// published h equals a from-scratch estimate, the stored goal verdict
// equals the nested-loop reference scan (Database.Contains, not the
// containment index that produced it), the published move list equals a
// fresh expansion of the state's own database with the move memo off, and
// every state and every move's successor is the table's canonical state for
// its key. It covers the tree searches, A*, the successor pool
// and the sharded search, and under -race the table's concurrent use.
func TestMemoTableMatchesScratch(t *testing.T) {
	flightsSrc, flightsTgt, err := datagen.FlightsScaled(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchSrc, matchTgt := datagen.MustMatchingPair(5)
	instances := []struct {
		name     string
		src, tgt *relation.Database
	}{
		{"flights3x2", flightsSrc, flightsTgt},
		{"matching5", matchSrc, matchTgt},
	}
	runs := []Options{
		{Algorithm: search.IDA, Workers: 1},
		{Algorithm: search.IDA, Workers: 4},
		{Algorithm: search.RBFS, Workers: 1},
		{Algorithm: search.RBFS, Workers: 4},
		{Algorithm: search.AStar, Workers: 1},
		{Algorithm: search.AStar, Workers: 4},
		{ParallelSearch: true, Workers: 4},
	}
	for _, in := range instances {
		for _, run := range runs {
			opts, err := run.normalize()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s/workers=%d", in.name, opts.Algorithm, opts.Workers)
			if opts.ParallelSearch {
				name += "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				checkTableAgainstScratch(t, in.src, in.tgt, opts)
			})
		}
	}
}

func checkTableAgainstScratch(t *testing.T, src, tgt *relation.Database, opts Options) {
	rec := &examineRecorder{mappingProblem: newProblem(src, tgt, opts), examined: make(map[*dbState]bool)}
	if _, err := runSearch(context.Background(), rec, rec.h, opts); err != nil {
		t.Fatal(err)
	}
	canonical := func(s *dbState) bool {
		got, created := rec.table.intern(s.db, s.key)
		return !created && got == s
	}
	scratch := heuristic.New(opts.Heuristic, tgt, opts.K)
	// A no-op fault hook turns the move memo off: every expansion computes.
	freshOpts := opts
	freshOpts.FaultHook = func(faults.Site, string) {}
	fresh := newProblem(src, tgt, freshOpts)
	expanded := 0
	for s := range rec.examined {
		if !canonical(s) {
			t.Fatalf("examined state %x is not the table's state for its key", s.key)
		}
		e := s.est.Load()
		if e == nil {
			t.Fatalf("examined state %x has no published estimate", s.key)
		}
		if want := scratch.Estimate(s.db); e.h != want {
			t.Fatalf("state %x: table h = %d, from-scratch estimate = %d", s.key, e.h, want)
		}
		want := verdictNotGoal
		if s.db.Contains(tgt) {
			want = verdictGoal
		}
		if got := s.goal.Load(); got != want {
			t.Fatalf("state %x: stored goal verdict = %d, reference scan gives %d", s.key, got, want)
		}
		moves := s.moves.Load()
		if moves == nil {
			continue // examined but never expanded: a goal or a pruned leaf
		}
		expanded++
		wantMoves, err := fresh.Successors(&dbState{db: s.db, key: s.key})
		if err != nil {
			t.Fatal(err)
		}
		if len(*moves) != len(wantMoves) {
			t.Fatalf("state %x: table lists %d moves, fresh expansion %d", s.key, len(*moves), len(wantMoves))
		}
		for i, m := range *moves {
			if m.Op.String() != wantMoves[i].Op.String() || m.To.Key() != wantMoves[i].To.Key() {
				t.Fatalf("state %x move %d: table %s → %x, fresh %s → %x",
					s.key, i, m.Op, m.To.Key(), wantMoves[i].Op, wantMoves[i].To.Key())
			}
			if !canonical(m.To.(*dbState)) {
				t.Fatalf("state %x move %d (%s): successor is not the table's state for its key", s.key, i, m.Op)
			}
		}
	}
	if expanded == 0 {
		t.Fatal("no examined state was expanded")
	}
}
