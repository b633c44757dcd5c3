package heuristic

import (
	"fmt"
	"testing"

	"tupelo/internal/datagen"
	"tupelo/internal/fira"
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
// every new built successor — against BenchmarkScratchEstimate's
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
	v0 := inc.EstimateDelta(parent, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := inc.EstimateDelta(parent, d); v != v0 {
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

// editCase is a previewed ρ^att or π̄ child of a state, estimated against a
// target: what a search expansion estimates for every new previewed child.
type editCase struct {
	name     string
	src, tgt *relation.Database
	child    relation.ChildHash
}

// editCases are a rename and a drop on exp1's 8- and 32-attribute rows
// (MatchingPair) and on the promoted 8-route × 4-carrier Flights relation
// (32 rows, 12 attributes), each against its own workload's target.
func editCases(tb testing.TB) []editCase {
	tb.Helper()
	var cases []editCase
	add := func(name string, src, tgt *relation.Database, rel, att, to string) {
		r, ok := src.Relation(rel)
		if !ok {
			tb.Fatalf("%s: no relation %s", name, rel)
		}
		var c relation.ChildHash
		if to == "" {
			c, ok = r.DroppedHash(att)
		} else {
			c, ok = r.RenamedHash(att, to)
		}
		if !ok || !c.Derivable() {
			tb.Fatalf("%s: preview declined or underivable", name)
		}
		cases = append(cases, editCase{name, src, tgt, c})
	}
	for _, n := range []int{8, 32} {
		src, tgt := datagen.MustMatchingPair(n)
		add(fmt.Sprintf("exp1-%d/rename", n), src, tgt, "S", "A3", "B3")
		add(fmt.Sprintf("exp1-%d/drop", n), src, tgt, "S", "A3", "")
	}
	flights, tgt := datagen.MustFlightsScaled(8, 4)
	promoted, err := fira.Promote{Rel: "Prices", NameAttr: "Route", ValueAttr: "Cost"}.Apply(flights, nil)
	if err != nil {
		tb.Fatal(err)
	}
	add("promoted/rename", promoted, tgt, "Prices", "AgentFee", "Fee")
	add("promoted/drop", promoted, tgt, "Prices", "Route", "")
	return cases
}

// TestEstimateAllocations pins the successor estimates to the stack: an
// edit estimate, and a delta estimate of one replaced relation, allocate
// nothing for h1, cosine, Jaccard and hybrid.
func TestEstimateAllocations(t *testing.T) {
	for _, tc := range editCases(t) {
		for _, kind := range []Kind{H1, Cosine, Jaccard, Hybrid} {
			inc, ok := AsIncremental(New(kind, tc.tgt, 5))
			if !ok {
				t.Fatalf("%s is not incremental", kind)
			}
			parent := inc.Seed(tc.src)
			ed := tc.child.Edit()
			d := Delta{Removed: []*relation.Fragment{ed.Frag}, Added: []*relation.Fragment{tc.child.Fragment()}}
			if got := testing.AllocsPerRun(100, func() { inc.EstimateEdit(parent, ed) }); got != 0 {
				t.Errorf("%s %s: EstimateEdit made %.0f allocations, want 0", tc.name, kind, got)
			}
			if got := testing.AllocsPerRun(100, func() { inc.EstimateDelta(parent, d) }); got != 0 {
				t.Errorf("%s %s: EstimateDelta made %.0f allocations, want 0", tc.name, kind, got)
			}
		}
	}
}

// BenchmarkEstimateEdit compares estimating a previewed child from its
// edit with what the edit saves: deriving the child's fragment from its
// parent's and delta-merging it, under h1 and cosine.
func BenchmarkEstimateEdit(b *testing.B) {
	for _, tc := range editCases(b) {
		for _, kind := range []Kind{H1, Cosine} {
			inc, _ := AsIncremental(New(kind, tc.tgt, 5))
			parent := inc.Seed(tc.src)
			ed := tc.child.Edit()
			want := inc.EstimateEdit(parent, ed)
			b.Run(tc.name+"/"+kind.String()+"/edit", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if v := inc.EstimateEdit(parent, tc.child.Edit()); v != want {
						b.Fatalf("estimate drifted: %d != %d", v, want)
					}
				}
			})
			b.Run(tc.name+"/"+kind.String()+"/derived+delta", func(b *testing.B) {
				b.ReportAllocs()
				rem, add := make([]*relation.Fragment, 1), make([]*relation.Fragment, 1)
				for i := 0; i < b.N; i++ {
					rem[0], add[0] = ed.Frag, tc.child.Fragment()
					if v := inc.EstimateDelta(parent, Delta{Removed: rem, Added: add}); v != want {
						b.Fatalf("estimate drifted: %d != %d", v, want)
					}
				}
			})
		}
	}
}
