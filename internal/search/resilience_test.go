package search

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestHeapBudgetAborts pins the memory-budget sentinel chain: a hopeless
// 1-byte budget aborts at the very first sampled state (state 1), and the
// error matches both ErrLimit (the run is budget-bound) and ErrMemory (the
// refinement) with Cause "memory".
func TestHeapBudgetAborts(t *testing.T) {
	p := lineProblem{n: 1000}
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		t.Run(algo.String(), func(t *testing.T) {
			_, err := run(algo, p, lineHeuristic(p), Limits{MaxHeapBytes: 1})
			if !errors.Is(err, ErrLimit) || !errors.Is(err, ErrMemory) {
				t.Fatalf("err = %v, want both ErrLimit and ErrMemory", err)
			}
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("err = %T, want *Error", err)
			}
			if serr.Cause() != "memory" {
				t.Fatalf("cause = %q, want memory", serr.Cause())
			}
			if serr.Stats.Examined != 1 {
				t.Fatalf("examined %d states before the first sample, want 1", serr.Stats.Examined)
			}
		})
	}
}

// TestHeapBudgetSampledCadence pins that the heap check runs every
// heapCheckInterval examined states, not per state: a budget the run only
// exceeds mid-search aborts exactly at a sample point (Examined ≡ 1 mod 64,
// past the first).
func TestHeapBudgetSampledCadence(t *testing.T) {
	p := lineProblem{n: 1 << 20}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Ballast retained by the heuristic closure pushes HeapAlloc over the
	// budget after a handful of states, well before sample point 65.
	var ballast [][]byte
	h := func(s State) int {
		ballast = append(ballast, make([]byte, 1<<20))
		return p.n - int(s.(intState))
	}
	_, err := run(RBFS, p, h, Limits{MaxHeapBytes: ms.HeapAlloc + 8<<20})
	runtime.KeepAlive(ballast)
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory", err)
	}
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *Error", err)
	}
	if n := serr.Stats.Examined; n <= 1 || n%heapCheckInterval != 1 {
		t.Fatalf("aborted at state %d, want a later sample point (≡ 1 mod %d)", n, heapCheckInterval)
	}
}

// TestExpiredDeadlineAbortsAtFirstState pins that the context is checked at
// every examined state, not on the heap sample's cadence: an
// already-expired deadline aborts at state 1.
func TestExpiredDeadlineAbortsAtFirstState(t *testing.T) {
	p := lineProblem{n: 1000}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		t.Run(algo.String(), func(t *testing.T) {
			_, err := RunContext(ctx, algo, p, lineHeuristic(p), Limits{})
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("err = %T, want *Error", err)
			}
			if serr.Cause() != "deadline" {
				t.Fatalf("cause = %q, want deadline", serr.Cause())
			}
			if serr.Stats.Examined != 1 {
				t.Fatalf("examined %d states, want 1", serr.Stats.Examined)
			}
		})
	}
}

// TestBestEffortPartialOnStateBudget: with BestEffort set, a budget-aborted
// run attaches the lowest-heuristic frontier state and a coherent path to it.
func TestBestEffortPartialOnStateBudget(t *testing.T) {
	p := lineProblem{n: 1000}
	for _, algo := range []Algorithm{IDA, RBFS, AStar, Greedy} {
		t.Run(algo.String(), func(t *testing.T) {
			_, err := run(algo, p, lineHeuristic(p), Limits{MaxStates: 25, BestEffort: true})
			if !errors.Is(err, ErrLimit) {
				t.Fatalf("err = %v, want ErrLimit", err)
			}
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("err = %T, want *Error", err)
			}
			part := serr.Partial
			if part == nil {
				t.Fatal("BestEffort abort carried no Partial")
			}
			if part.State == nil {
				t.Fatal("Partial.State is nil")
			}
			// Progress: the best frontier state must beat the start.
			if start := lineHeuristic(p)(p.Start()); part.H >= start {
				t.Fatalf("partial h = %d, no better than start %d", part.H, start)
			}
			// Path coherence: the recorded moves end at the recorded state.
			if len(part.Path) == 0 {
				t.Fatal("partial path empty despite progress")
			}
			if got := part.Path[len(part.Path)-1].To; got != part.State {
				t.Fatalf("path ends at %v, state is %v", got, part.State)
			}
			// And the heuristic value matches the recorded state.
			if h := lineHeuristic(p)(part.State); h != part.H {
				t.Fatalf("recorded h = %d, state evaluates to %d", part.H, h)
			}
		})
	}
}

// TestBestEffortPartialOnImmediateAbort: when the run dies at state 1 (heap
// budget) the partial degenerates to the start state with an empty path —
// still structurally valid.
func TestBestEffortPartialOnImmediateAbort(t *testing.T) {
	p := lineProblem{n: 50}
	_, err := run(RBFS, p, lineHeuristic(p), Limits{MaxHeapBytes: 1, BestEffort: true})
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *Error", err)
	}
	if serr.Partial == nil {
		t.Fatal("no partial")
	}
	if len(serr.Partial.Path) != 0 || serr.Partial.State != p.Start() {
		t.Fatalf("partial = %+v, want empty path at start", serr.Partial)
	}
}

// TestBestEffortPartialOnCancel: a cancelled context is degradable too.
func TestBestEffortPartialOnCancel(t *testing.T) {
	p := lineProblem{n: 1 << 20}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	h := func(s State) int {
		calls++
		if calls == 100 {
			cancel()
		}
		return p.n - int(s.(intState))
	}
	_, err := RunContext(ctx, RBFS, p, h, Limits{BestEffort: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *Error", err)
	}
	if serr.Partial == nil || serr.Partial.State == nil {
		t.Fatal("cancelled best-effort run carried no partial")
	}
}

// TestBestEffortOffNoPartial: the default configuration must not pay for or
// expose partial tracking.
func TestBestEffortOffNoPartial(t *testing.T) {
	p := lineProblem{n: 1000}
	_, err := run(RBFS, p, lineHeuristic(p), Limits{MaxStates: 25})
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *Error", err)
	}
	if serr.Partial != nil {
		t.Fatalf("Partial = %+v without BestEffort", serr.Partial)
	}
}

// TestPanicErrorCause pins the error-vocabulary extension: a *PanicError
// wrapped in *Error classifies as "panic" ahead of everything else.
func TestPanicErrorCause(t *testing.T) {
	pe := NewPanicError("test goroutine", "boom")
	e := &Error{Err: pe}
	if e.Cause() != "panic" {
		t.Fatalf("cause = %q, want panic", e.Cause())
	}
	if got := pe.Error(); got != `panic in test goroutine: boom` {
		t.Fatalf("message = %q", got)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	var back *PanicError
	if !errors.As(e, &back) || back != pe {
		t.Fatal("errors.As failed to recover the PanicError")
	}
}
