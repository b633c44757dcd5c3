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
			if serr.Stats.Examined != 0 {
				t.Fatalf("a discovery cancelled before its first goal test reports %d states examined, want 0", serr.Stats.Examined)
			}
		})
	}
}

func TestDiscoverDeadline(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := DiscoverContext(ctx, src, tgt, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
