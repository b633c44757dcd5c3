package core

import (
	"testing"

	"tupelo/internal/datagen"
	"tupelo/internal/heuristic"
	"tupelo/internal/search"
)

// TestIncrementalAblationIdentical pins the central claim of the
// incremental evaluator wiring: delta-merged estimates are bit-identical to
// from-scratch ones, so disabling the incremental path must change nothing
// about the search — same mapping, same states examined — for every
// heuristic kind and both paper algorithms. Only the cost moves.
func TestIncrementalAblationIdentical(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	for _, algo := range []search.Algorithm{search.IDA, search.RBFS} {
		for _, kind := range heuristic.Kinds() {
			inc, err := Discover(src, tgt, Options{Algorithm: algo, Heuristic: kind})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, kind, err)
			}
			scratch, err := Discover(src, tgt, Options{
				Algorithm: algo, Heuristic: kind, DisableIncremental: true,
			})
			if err != nil {
				t.Fatalf("%s/%s (ablated): %v", algo, kind, err)
			}
			if inc.Expr.String() != scratch.Expr.String() {
				t.Errorf("%s/%s: incremental mapping %q != from-scratch %q",
					algo, kind, inc.Expr, scratch.Expr)
			}
			if inc.Stats.Examined != scratch.Stats.Examined {
				t.Errorf("%s/%s: incremental examined %d states, from-scratch %d",
					algo, kind, inc.Stats.Examined, scratch.Stats.Examined)
			}
		}
	}
}
