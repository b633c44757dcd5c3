package fira

import (
	"fmt"
	"testing"

	"tupelo/internal/relation"
)

// allocTable builds an n-row, three-column relation with distinct values.
func allocTable(name string, n int) *relation.Relation {
	b, err := relation.NewBuilder(name, []string{"A", "B", "C"})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Add(relation.Tuple{
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i),
		}); err != nil {
			panic(err)
		}
	}
	return b.Relation()
}

// opAllocs measures the allocations of applying op to a database holding an
// n-row relation (plus whatever extra relations mk adds).
func opAllocs(t *testing.T, op Op, db *relation.Database) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		if _, err := op.Apply(db, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOpApplyAllocsLinear pins the batch-builder conversion of the fira
// operators: doubling the input must roughly double allocations (ratio ≈ 2
// for linear construction), not quadruple them as the old one-copy-on-write
// -Insert-per-row construction did (ratio ≈ 4). The threshold of 3 sits
// between the two regimes with slack for constant terms.
func TestOpApplyAllocsLinear(t *testing.T) {
	const n = 64
	cases := []struct {
		name string
		op   Op
		mk   func(rows int) *relation.Database
	}{
		{
			name: "demote",
			op:   Demote{Rel: "R"},
			mk: func(rows int) *relation.Database {
				return relation.MustDatabase(allocTable("R", rows))
			},
		},
		{
			name: "product",
			op:   Product{Left: "R", Right: "S"},
			mk: func(rows int) *relation.Database {
				s := relation.MustNew("S", []string{"X"}, relation.Tuple{"x"}, relation.Tuple{"y"})
				return relation.MustDatabase(allocTable("R", rows), s)
			},
		},
		{
			name: "partition",
			op:   Partition{Rel: "R", Attr: "A"},
			mk: func(rows int) *relation.Database {
				// Two partitions, rows/2 tuples each: pre-builder each tuple
				// cloned its whole partition on insert.
				b, err := relation.NewBuilder("R", []string{"A", "B", "C"})
				if err != nil {
					panic(err)
				}
				for i := 0; i < rows; i++ {
					if err := b.Add(relation.Tuple{
						fmt.Sprintf("P%d", i%2), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i),
					}); err != nil {
						panic(err)
					}
				}
				return relation.MustDatabase(b.Relation())
			},
		},
		{
			name: "union",
			op:   Union{Left: "R", Right: "S"},
			mk: func(rows int) *relation.Database {
				return relation.MustDatabase(allocTable("R", rows), allocTable("S", rows))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			small := opAllocs(t, tc.op, tc.mk(n))
			big := opAllocs(t, tc.op, tc.mk(2*n))
			if small == 0 {
				t.Fatalf("no allocations measured for %s", tc.name)
			}
			if ratio := big / small; ratio >= 3 {
				t.Fatalf("%s allocations grew %.1fx when input doubled (small=%.0f big=%.0f); construction is superlinear",
					tc.name, ratio, small, big)
			}
		})
	}
}

// successorDB is the source of the exp1 matching pair at n=8: one relation
// S of arity 8 over A1…A8 holding the single row a1…a8.
func successorDB() *relation.Database {
	attrs := make([]string, 8)
	row := make(relation.Tuple, 8)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
		row[i] = fmt.Sprintf("a%d", i+1)
	}
	db := relation.MustDatabase(relation.MustNew("S", attrs, row))
	db.Key() // a search identifies a state before it expands it
	return db
}

// successorOps are the exp1 successors the allocation budget covers, with
// that budget: allocations of Apply plus Key, and of those plus the derived
// forms a new state's estimate and move generation read (the relation's
// TNF fragment and distinct symbols).
var successorOps = []struct {
	name            string
	op              Op
	apply, identify float64
}{
	{"rename", RenameAtt{Rel: "S", From: "A3", To: "B3"}, 6, 10},
	{"drop", Drop{Rel: "S", Attr: "A3"}, 7, 11},
}

var keySink string

// TestSuccessorAllocations bounds what one successor of a one-row state
// allocates. Each search successor is built, keyed and, when new, estimated
// and expanded, so these counts multiply by the millions in an exp1 sweep.
func TestSuccessorAllocations(t *testing.T) {
	db := successorDB()
	for _, tc := range successorOps {
		t.Run(tc.name, func(t *testing.T) {
			succ := func() *relation.Database {
				next, err := tc.op.Apply(db, nil)
				if err != nil {
					t.Fatal(err)
				}
				keySink = next.Key()
				return next
			}
			apply := testing.AllocsPerRun(100, func() { succ() })
			identify := testing.AllocsPerRun(100, func() {
				r, _ := succ().Relation("S")
				r.TNFFragment()
				r.DistinctSymbols(0)
			})
			if apply > tc.apply || identify > tc.identify {
				t.Errorf("Apply+Key: %.0f allocations (budget %.0f); with fragment and distinct symbols: %.0f (budget %.0f)",
					apply, tc.apply, identify, tc.identify)
			}
		})
	}
}

// BenchmarkSuccessor measures building and keying one exp1 successor.
func BenchmarkSuccessor(b *testing.B) {
	db := successorDB()
	for _, tc := range successorOps {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next, err := tc.op.Apply(db, nil)
				if err != nil {
					b.Fatal(err)
				}
				keySink = next.Key()
			}
		})
	}
}

// promotedPrices is the 8-route × 4-carrier FlightsB-style Prices relation
// after ↑ promoted its routes: 32 rows over Carrier, Route, Cost, AgentFee
// and one column per route, each row holding its cost under its own route
// and the absent value under the other seven.
func promotedPrices(tb testing.TB) *relation.Database {
	tb.Helper()
	src, err := relation.NewBuilder("Prices", []string{"Carrier", "Route", "Cost", "AgentFee"})
	if err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		for r := 0; r < 8; r++ {
			row := relation.Tuple{fmt.Sprintf("Air%02d", c+1), fmt.Sprintf("RT%02d", r+1),
				fmt.Sprintf("%d", 100*(c+1)+10*r), fmt.Sprintf("%d", 10+c)}
			if err := src.Add(row); err != nil {
				tb.Fatal(err)
			}
		}
	}
	db, err := Promote{Rel: "Prices", NameAttr: "Route", ValueAttr: "Cost"}.Apply(relation.MustDatabase(src.Relation()), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// coalescingPrices is promotedPrices with Route and Cost dropped, Example
// 2's state before µ: merging it on Carrier coalesces each carrier's eight
// rows into one, 32 rows into 4.
func coalescingPrices(tb testing.TB) *relation.Database {
	tb.Helper()
	db, err := Expr{Drop{Rel: "Prices", Attr: "Route"}, Drop{Rel: "Prices", Attr: "Cost"}}.Eval(promotedPrices(tb), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

var (
	mergeCoalesce = Merge{Rel: "Prices", Attr: "Carrier"}
	dropRoute     = Drop{Rel: "Prices", Attr: "Route"}
)

// TestRestructureKernelAllocations bounds what the restructuring kernels
// allocate on Flights-shaped input: a coalescing µ rebuilds in symbol space
// without decoding a row or keying a map, π̄ deduplicates its 32 rows
// without a map or a key per row, and a 32-row relation's distinct column
// symbols share one backing array.
func TestRestructureKernelAllocations(t *testing.T) {
	coalescing := coalescingPrices(t)
	promoted := promotedPrices(t)
	apply := func(op Op, db *relation.Database) func() {
		return func() {
			if _, err := op.Apply(db, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(50, apply(mergeCoalesce, coalescing)); got > 16 {
		t.Errorf("coalescing µ: %.0f allocations, budget 16", got)
	}
	if got := testing.AllocsPerRun(50, apply(dropRoute, promoted)); got > 10 {
		t.Errorf("π̄ on the promoted relation: %.0f allocations, budget 10", got)
	}
	// DistinctSymbols is memoized, so each run asks a fresh relation over
	// the same columns; the budget counts what the call adds to that.
	r, _ := promoted.Relation("Prices")
	fresh := func() *relation.Relation {
		f, err := r.WithName("Fresh")
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	base := testing.AllocsPerRun(50, func() { fresh() })
	withDistinct := testing.AllocsPerRun(50, func() { fresh().DistinctSymbols(0) })
	if got := withDistinct - base; got > 4 {
		t.Errorf("DistinctSymbols on a fresh 32-row relation: %.0f allocations, budget 4", got)
	}
}

// BenchmarkMergeCoalesce measures the µ of Example 2 at Fig. 1 scale ×4:
// merging coalescingPrices on Carrier, 32 rows into 4.
func BenchmarkMergeCoalesce(b *testing.B) {
	db := coalescingPrices(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := mergeCoalesce.Apply(db, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r, _ := out.Relation("Prices"); r.Len() != 4 {
			b.Fatalf("merge left %d tuples, want 4", r.Len())
		}
	}
}

// BenchmarkDropFlights measures π̄ of Route on the promoted 32-row Prices
// relation, the first projection of Example 2.
func BenchmarkDropFlights(b *testing.B) {
	db := promotedPrices(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dropRoute.Apply(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}
