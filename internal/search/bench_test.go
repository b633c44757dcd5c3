package search

import "testing"

// benchGrid is the workload of the examine benchmark: a dense open grid with real branching, large enough that the per-state
// bookkeeping dominates rather than setup.
func benchGrid() gridProblem {
	return gridProblem{w: 64, h: 64, walls: map[[2]int]bool{}, start: [2]int{0, 0}, target: [2]int{63, 63}}
}

// BenchmarkExamine pins the Limits.Cooperative split: the solitary
// (cooperative=false) path must stay free of the every-16-states
// runtime.Gosched() yield that racing portfolio members pay.
// Before the flag, single-run searches yielded unconditionally — compare the
// two sub-benchmarks to see the recovered margin.
func BenchmarkExamine(b *testing.B) {
	for _, coop := range []bool{false, true} {
		name := "solitary"
		if coop {
			name = "cooperative"
		}
		b.Run(name, func(b *testing.B) {
			p := benchGrid()
			h := p.manhattan()
			lim := Limits{Cooperative: coop}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := run(AStar, p, h, lim)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Stats.Examined), "states/op")
				}
			}
		})
	}
}

// BenchmarkTreeSearch measures IDA*'s and RBFS's per-visit bookkeeping —
// the path check, building and ordering the children, RBFS's
// re-insertion of a revised child — on the walled "barrier" grid, whose
// detour makes both searches revisit states many times over.
func BenchmarkTreeSearch(b *testing.B) {
	p := walledGrids()["barrier"]
	h := p.manhattan()
	for _, algo := range []Algorithm{IDA, RBFS} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := run(algo, p, h, Limits{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Stats.Examined), "states/op")
				}
			}
		})
	}
}
