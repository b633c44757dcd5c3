package relation

import (
	"fmt"
	"testing"
)

// BenchmarkInternedEncode measures the interned fragment-encoding path: a
// fresh relation (cold memo) has every token pushed through the intern
// dictionary and its TNF term vector built over int32 symbols. This is the
// one-time cost paid per distinct relation the search materializes; the
// fragment memo makes every later touch free.
func BenchmarkInternedEncode(b *testing.B) {
	attrs := []string{"A", "B", "C", "D"}
	rows := make([]Tuple, 16)
	for i := range rows {
		rows[i] = Tuple{
			fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i%5),
			fmt.Sprintf("u%d", i%3), "shared",
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Relation each iteration defeats the per-relation memo so
		// the encode itself is what's measured; the tokens stay hot in the
		// intern dictionary, as they do across a real search run.
		r := MustNew("Bench", attrs, rows...)
		f := r.TNFFragment()
		if f.Tuples != len(rows) {
			b.Fatalf("bad fragment: %+v", f)
		}
	}
}

// BenchmarkInternHit measures the steady-state dictionary lookup — the cost
// of interning a string the run has already seen, which is the overwhelmingly
// common case during a search.
func BenchmarkInternHit(b *testing.B) {
	Intern("bench-hot-token")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intern("bench-hot-token")
	}
}

// promotedFlights builds a Flights-shaped relation as the restructuring
// search sees it after ↑: one row per (carrier, route) with the Fig. 1
// source columns plus one promoted column per route, holding the cost in
// the row of its own route and the absent value everywhere else.
func promotedFlights(routes, carriers int) *Relation {
	attrs := []string{"Carrier", "Route", "Cost", "AgentFee"}
	for r := 0; r < routes; r++ {
		attrs = append(attrs, fmt.Sprintf("RT%02d", r+1))
	}
	b, err := NewBuilder("Prices", attrs)
	if err != nil {
		panic(err)
	}
	for c := 0; c < carriers; c++ {
		for r := 0; r < routes; r++ {
			cost := fmt.Sprintf("%d", 100*(c+1)+10*r)
			row := Tuple{fmt.Sprintf("Air%02d", c+1), fmt.Sprintf("RT%02d", r+1), cost, fmt.Sprintf("%d", 10+c)}
			for k := 0; k < routes; k++ {
				if k == r {
					row = append(row, cost)
				} else {
					row = append(row, "")
				}
			}
			if err := b.Add(row); err != nil {
				panic(err)
			}
		}
	}
	return b.Relation()
}

// BenchmarkComputeFragment measures building one TNF fragment from the
// symbol columns of a promoted 8-route × 4-carrier Flights relation — the
// cost each new relation a restructuring successor creates pays once,
// before its first heuristic delta.
func BenchmarkComputeFragment(b *testing.B) {
	r := promotedFlights(8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := r.computeFragment(); f.Tuples != 32 {
			b.Fatalf("bad fragment: %d tuples", f.Tuples)
		}
	}
}
