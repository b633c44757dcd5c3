package search

import (
	"context"
	"errors"
	"testing"
	"time"
)

// cancelAfterProblem wraps a problem and cancels the given context after n
// expansions, producing deterministic mid-search cancellation.
type cancelAfterProblem struct {
	inner  Problem
	cancel context.CancelFunc
	left   int
}

func (p *cancelAfterProblem) Start() State        { return p.inner.Start() }
func (p *cancelAfterProblem) IsGoal(s State) bool { return p.inner.IsGoal(s) }
func (p *cancelAfterProblem) Successors(s State) ([]Move, error) {
	p.left--
	if p.left <= 0 {
		p.cancel()
	}
	return p.inner.Successors(s)
}

func allAlgorithms() []Algorithm {
	return []Algorithm{IDA, RBFS, AStar, Greedy}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := lineProblem{n: 100}
	for _, algo := range allAlgorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			_, err := RunContext(ctx, algo, p, lineHeuristic(p), Limits{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("err = %T, want *search.Error with partial stats", err)
			}
			if serr.Cause() != "canceled" {
				t.Fatalf("Cause() = %q, want \"canceled\"", serr.Cause())
			}
			if serr.Stats.Examined != 0 {
				t.Fatalf("a run cancelled before its first goal test reports %d states examined, want 0", serr.Stats.Examined)
			}
		})
	}
}

func TestMidSearchCancellation(t *testing.T) {
	for _, algo := range allAlgorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inner := lineProblem{n: 500}
			p := &cancelAfterProblem{inner: inner, cancel: cancel, left: 5}
			// Blind heuristic so no algorithm reaches the goal within five
			// expansions.
			_, err := RunContext(ctx, algo, p, func(State) int { return 0 }, Limits{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var serr *Error
			if !errors.As(err, &serr) || serr.Stats.Examined < 5 {
				t.Fatalf("partial stats missing or implausible: %v", err)
			}
		})
	}
}

// TestDeadlineLimit: a context deadline is the search's wall-clock bound,
// and every algorithm reports it as context.DeadlineExceeded.
func TestDeadlineLimit(t *testing.T) {
	p := lineProblem{n: 100}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, algo := range allAlgorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			_, err := RunContext(ctx, algo, p, lineHeuristic(p), Limits{})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

// deadlineAfterProblem wraps a problem and, from its k-th expansion on,
// waits until the context is done: the context's deadline passes while the
// search is mid-run, after it has expanded k states, however fast or slow
// the machine runs.
type deadlineAfterProblem struct {
	inner Problem
	ctx   context.Context
	left  int
}

func (p *deadlineAfterProblem) Start() State        { return p.inner.Start() }
func (p *deadlineAfterProblem) IsGoal(s State) bool { return p.inner.IsGoal(s) }
func (p *deadlineAfterProblem) Successors(s State) ([]Move, error) {
	if p.left--; p.left <= 0 {
		<-p.ctx.Done()
	}
	return p.inner.Successors(s)
}

// TestDeadlineExpiresMidSearch: a context deadline that passes after the
// search has expanded k states aborts every algorithm with
// context.DeadlineExceeded and the "deadline" cause, reporting at least the
// k states it examined. TestDeadlineLimit covers a deadline already past
// at the start.
func TestDeadlineExpiresMidSearch(t *testing.T) {
	const k = 5
	for _, algo := range allAlgorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			p := &deadlineAfterProblem{inner: lineProblem{n: 500}, ctx: ctx, left: k}
			// Blind heuristic so no algorithm reaches the goal within k
			// expansions.
			_, err := RunContext(ctx, algo, p, func(State) int { return 0 }, Limits{})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("err = %T, want *search.Error with partial stats", err)
			}
			if serr.Cause() != "deadline" {
				t.Fatalf("Cause() = %q, want \"deadline\"", serr.Cause())
			}
			if serr.Stats.Examined < k {
				t.Fatalf("Examined = %d, want at least the %d states expanded before the deadline", serr.Stats.Examined, k)
			}
		})
	}
}

func TestAlgorithmUnsetResolvesToRBFS(t *testing.T) {
	p := lineProblem{n: 5}
	res, err := run(AlgorithmUnset, p, lineHeuristic(p), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) != 5 {
		t.Fatalf("path length = %d, want 5", len(res.Path))
	}
	if AlgorithmUnset.String() != "unset" {
		t.Fatalf("String = %q", AlgorithmUnset.String())
	}
}

func TestErrorCarriesStatsOnLimit(t *testing.T) {
	p := lineProblem{n: 1000}
	_, err := run(RBFS, p, func(State) int { return 0 }, Limits{MaxStates: 50})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *search.Error", err)
	}
	if serr.Stats.Examined != 50 {
		t.Fatalf("Examined = %d, want the budget's 50 (the state that tripped it is not goal-tested)", serr.Stats.Examined)
	}
}
