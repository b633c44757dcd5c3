package heuristic

import (
	"fmt"
	"testing"

	"tupelo/internal/relation"
)

// benchPair builds a mid-sized state/target pair and one successor of the
// state (a single relation replaced), mirroring what every search expansion
// feeds the evaluator.
func benchPair() (x, succ, tgt *relation.Database) {
	mk := func(stamp string) *relation.Database {
		rels := make([]*relation.Relation, 4)
		for i := range rels {
			r := relation.MustNew(fmt.Sprintf("R%d", i), []string{"A", "B", "C"})
			for j := 0; j < 6; j++ {
				var err error
				r, err = r.Insert(relation.Tuple{
					fmt.Sprintf("%sv%d", stamp, j), fmt.Sprintf("w%d", j), fmt.Sprintf("u%d", j%3),
				})
				if err != nil {
					panic(err)
				}
			}
			rels[i] = r
		}
		return relation.MustDatabase(rels...)
	}
	x = mk("x")
	tgt = mk("t")
	r0, _ := x.Relation("R0")
	renamed, err := r0.WithAttrRenamed("A", "Z")
	if err != nil {
		panic(err)
	}
	succ, _, err = x.ReplaceRelation("R0", renamed)
	if err != nil {
		panic(err)
	}
	return x, succ, tgt
}

// BenchmarkIncrementalEstimate measures the per-successor cost of the
// delta-merged estimate — the operation the search hot path performs for
// every cache-missing successor — against BenchmarkScratchEstimate's
// re-encode-everything baseline below.
func BenchmarkIncrementalEstimate(b *testing.B) {
	x, succ, tgt := benchPair()
	e := New(Cosine, tgt, 5)
	inc, ok := AsIncremental(e)
	if !ok {
		b.Fatal("cosine must be incremental")
	}
	parent := inc.Seed(x)
	d := deltaOf(x, succ)
	// Pre-warm the successor fragment so iterations measure the merge, not
	// the one-time fragment memoization.
	v0, _ := inc.EstimateDelta(parent, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := inc.EstimateDelta(parent, d)
		if v != v0 {
			b.Fatalf("estimate drifted: %d != %d", v, v0)
		}
	}
}

// BenchmarkScratchEstimate is the from-scratch baseline the incremental
// path replaces; the ratio to BenchmarkIncrementalEstimate is the win.
func BenchmarkScratchEstimate(b *testing.B) {
	_, succ, tgt := benchPair()
	e := New(Cosine, tgt, 5)
	v0 := e.Estimate(succ)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := e.Estimate(succ); v != v0 {
			b.Fatalf("estimate drifted: %d != %d", v, v0)
		}
	}
}
