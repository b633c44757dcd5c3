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
