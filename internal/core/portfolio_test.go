package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"tupelo/internal/datagen"
	"tupelo/internal/faults"
	"tupelo/internal/heuristic"
	"tupelo/internal/search"
)

// TestPortfolioWinnerAndCancelledLosers races one capable configuration
// against a hopeless one: blind IDA on an 8-attribute matching instance
// cannot finish before RBFS/cosine does, so the winner is deterministic and
// the loser must be observed cancelled with partial stats. A cancelled run
// counts only the states it goal-tested, so the winner's estimates wait
// until the loser has estimated a successor, that is, goal-tested its start
// state. Stable under -count=10 -race.
func TestPortfolioWinnerAndCancelledLosers(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	var loserEvals atomic.Int32
	loserExpanded := make(chan struct{})
	hook := func(site faults.Site, label string) {
		if site != faults.SiteHeuristicEval {
			return
		}
		if strings.HasPrefix(label, heuristic.H0.String()+"/") {
			if loserEvals.Add(1) == 2 {
				close(loserExpanded)
			}
			return
		}
		<-loserExpanded
	}
	res, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.Cosine},
			{Algorithm: search.IDA, Heuristic: heuristic.H0},
		},
		Options: Options{FaultHook: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner.Algorithm != search.RBFS || res.Winner.Heuristic != heuristic.Cosine {
		t.Fatalf("winner = %s, want rbfs/cosine", res.Winner)
	}
	if err := Verify(res.Expr, src, tgt, nil); err != nil {
		t.Fatalf("winning mapping does not verify: %v", err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("len(Runs) = %d, want 2", len(res.Runs))
	}
	winRun, loseRun := res.Runs[0], res.Runs[1]
	if winRun.Err != nil {
		t.Errorf("winner run reports error: %v", winRun.Err)
	}
	if winRun.Stats.Examined == 0 || winRun.Duration <= 0 {
		t.Errorf("winner run stats incomplete: %+v", winRun)
	}
	if !errors.Is(loseRun.Err, context.Canceled) {
		t.Errorf("loser err = %v, want context.Canceled", loseRun.Err)
	}
	if loseRun.Stats.Examined == 0 {
		t.Error("cancelled loser should still report the states it examined")
	}
}

// TestPortfolioMatchesSequential checks the acceptance criterion that a
// portfolio returns the same verified mapping as the best sequential
// configuration: on a matching workload the minimal mapping is unique, so
// whichever member wins, applying its expression must produce the same
// database as the sequential run's.
func TestPortfolioMatchesSequential(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	seq, err := Discover(src, tgt, Options{Algorithm: search.RBFS, Heuristic: heuristic.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	port, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(port.Runs) != len(DefaultPortfolio()) {
		t.Fatalf("len(Runs) = %d, want %d", len(port.Runs), len(DefaultPortfolio()))
	}
	a, err := seq.Apply(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := port.Apply(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("portfolio mapping output differs from sequential:\nportfolio %s\nsequential %s",
			port.Expr, seq.Expr)
	}
}

// TestPortfolioSharedCache races two members that agree on (heuristic, k).
// Each runs on its own state table, so they share no estimates; run under
// -race this validates that two same-heuristic members race safely.
func TestPortfolioSharedCache(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	res, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.Cosine, K: 24},
			{Algorithm: search.IDA, Heuristic: heuristic.Cosine, K: 24},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Expr, src, tgt, nil); err != nil {
		t.Fatalf("winning mapping does not verify: %v", err)
	}
}

func TestPortfolioParentCancelled(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DiscoverPortfolio(ctx, src, tgt, PortfolioOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPortfolioNilInstances(t *testing.T) {
	src, _ := datagen.MustMatchingPair(2)
	if _, err := DiscoverPortfolio(context.Background(), src, nil, PortfolioOptions{}); err == nil {
		t.Fatal("want error for nil target")
	}
}

func TestPortfolioConfigString(t *testing.T) {
	c := PortfolioConfig{Algorithm: search.RBFS, Heuristic: heuristic.Cosine}
	if got := c.String(); got != "RBFS/cosine" {
		t.Errorf("String = %q", got)
	}
	c.K = 24
	if got := c.String(); got != "RBFS/cosine/k=24" {
		t.Errorf("String = %q", got)
	}
}
