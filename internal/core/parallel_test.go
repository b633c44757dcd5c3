package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tupelo/internal/datagen"
	"tupelo/internal/heuristic"
	"tupelo/internal/search"
)

func TestZeroOptionsMeansPaperBest(t *testing.T) {
	res, err := Discover(flightsB(), flightsA(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != search.RBFS {
		t.Errorf("Algorithm = %v, want RBFS", res.Algorithm)
	}
	if res.Heuristic != heuristic.Cosine {
		t.Errorf("Heuristic = %v, want Cosine", res.Heuristic)
	}
	if res.K != 24 {
		t.Errorf("K = %g, want 24 (the paper's RBFS/cosine constant)", res.K)
	}
}

func TestDiscoverContextCancelled(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []search.Algorithm{search.IDA, search.RBFS, search.AStar, search.Greedy} {
		t.Run(algo.String(), func(t *testing.T) {
			_, err := DiscoverContext(ctx, src, tgt, Options{Algorithm: algo, Heuristic: heuristic.H0})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var serr *search.Error
			if !errors.As(err, &serr) {
				t.Fatalf("err = %T, want *search.Error with partial stats", err)
			}
			if serr.Stats.Examined == 0 {
				t.Fatal("cancelled discovery should report the states it examined")
			}
		})
	}
}

func TestDiscoverDeadline(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	opts := Options{Limits: search.Limits{Deadline: time.Now().Add(-time.Second)}}
	_, err := Discover(src, tgt, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// movesWith expands the start state of the flights problem with the given
// worker count.
func movesWith(t *testing.T, workers int) []search.Move {
	t.Helper()
	opts, err := Options{Workers: workers}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(flightsB(), flightsA(), opts)
	moves, err := p.Successors(p.Start())
	if err != nil {
		t.Fatal(err)
	}
	return moves
}

func TestParallelSuccessorsEquivalent(t *testing.T) {
	seq := movesWith(t, 1)
	par := movesWith(t, 8)
	if len(seq) == 0 {
		t.Fatal("no successor moves at all")
	}
	if len(seq) != len(par) {
		t.Fatalf("move count: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Op.String() != par[i].Op.String() {
			t.Fatalf("move %d: operator %s (sequential) != %s (parallel)", i, seq[i].Op, par[i].Op)
		}
		if seq[i].To.Key() != par[i].To.Key() {
			t.Fatalf("move %d (%s): resulting states differ", i, seq[i].Op)
		}
	}
}

func TestParallelDiscoverIdentical(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	seq, err := Discover(src, tgt, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Discover(src, tgt, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := par.Expr.String(), seq.Expr.String(); got != want {
		t.Errorf("parallel mapping %q != sequential mapping %q", got, want)
	}
	if par.Stats.Examined != seq.Stats.Examined {
		t.Errorf("parallel Examined = %d, sequential = %d; worker count must not change the search",
			par.Stats.Examined, seq.Stats.Examined)
	}
}
