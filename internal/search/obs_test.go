package search

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tupelo/internal/obs"
)

// TestErrorMessageDistinguishesCauses verifies the Error() text names which
// bound fired instead of a bare "limit exceeded" for every kind of abort.
func TestErrorMessageDistinguishesCauses(t *testing.T) {
	p := lineProblem{n: 1000}
	blind := func(State) int { return 0 }

	_, err := run(RBFS, p, blind, Limits{MaxStates: 10})
	if err == nil || !strings.Contains(err.Error(), "state budget") || !strings.Contains(err.Error(), "cause=limit") {
		t.Fatalf("state-budget abort message = %v", err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = RunContext(ctx, RBFS, p, blind, Limits{})
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") || !strings.Contains(err.Error(), "cause=deadline") {
		t.Fatalf("deadline abort message = %v", err)
	}

	_, err = run(RBFS, deadEndProblem{}, blind, Limits{})
	if err == nil || !strings.Contains(err.Error(), "cause=exhausted") {
		t.Fatalf("exhausted message = %v", err)
	}
}

// TestMaxFrontierTrackedForLinearMemoryAlgorithms: IDA and RBFS now report
// their peak recursion depth through the previously A*-only MaxFrontier
// field; on a line problem with an exact heuristic the deepest path held is
// the solution itself.
func TestMaxFrontierTrackedForLinearMemoryAlgorithms(t *testing.T) {
	p := lineProblem{n: 12}
	for _, algo := range []Algorithm{IDA, RBFS} {
		t.Run(algo.String(), func(t *testing.T) {
			res, err := run(algo, p, lineHeuristic(p), Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.MaxFrontier != 12 {
				t.Fatalf("MaxFrontier = %d, want 12 (peak path depth)", res.Stats.MaxFrontier)
			}
		})
	}
}

// TestCounterFeedsMetricsAndTracer is the search-layer half of the
// observability contract: a context carrying obs hooks yields per-algorithm
// counters that match the returned Stats exactly, plus a run start/finish
// event pair.
func TestCounterFeedsMetricsAndTracer(t *testing.T) {
	reg := obs.NewRegistry()
	col := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), obs.Obs{Metrics: reg, Trace: col})
	p := lineProblem{n: 30}
	res, err := RunContext(ctx, RBFS, p, lineHeuristic(p), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	examined := reg.Counter(obs.Name("search.examined", "algo", "RBFS")).Value()
	generated := reg.Counter(obs.Name("search.generated", "algo", "RBFS")).Value()
	if examined != int64(res.Stats.Examined) {
		t.Fatalf("metric examined = %d, Stats.Examined = %d", examined, res.Stats.Examined)
	}
	if generated != int64(res.Stats.Generated) {
		t.Fatalf("metric generated = %d, Stats.Generated = %d", generated, res.Stats.Generated)
	}
	if got := reg.Counter(obs.Name("search.runs", "algo", "RBFS")).Value(); got != 1 {
		t.Fatalf("runs counter = %d, want 1", got)
	}
	if col.Count(obs.EvRunStart) != 1 || col.Count(obs.EvRunFinish) != 1 {
		t.Fatalf("expected one run start/finish pair, got %d/%d",
			col.Count(obs.EvRunStart), col.Count(obs.EvRunFinish))
	}
	events := col.Events()
	last := events[len(events)-1]
	if last.Kind != obs.EvRunFinish || !last.Goal || last.N != res.Stats.Examined {
		t.Fatalf("run-finish event = %+v", last)
	}
}

// TestAbortCauseCounted: failed runs land in search.aborts under their
// cause label.
func TestAbortCauseCounted(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), obs.Obs{Metrics: reg})
	p := lineProblem{n: 1000}
	_, err := RunContext(ctx, RBFS, p, func(State) int { return 0 }, Limits{MaxStates: 25})
	if !errors.Is(err, ErrLimit) {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.Name("search.aborts", "algo", "RBFS", "cause", "limit")).Value(); got != 1 {
		t.Fatalf("aborts{cause=limit} = %d, want 1", got)
	}
}
