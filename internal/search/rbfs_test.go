package search

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestReinsertFirstMatchesStableSort: on a sorted children slice whose first
// element's f was raised, RBFS's one-child re-insertion must leave exactly
// the order a stable (f, h) re-sort produces. Values are drawn from small
// ranges so ties in f and in (f, h) are common.
func TestReinsertFirstMatchesStableSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kids := make([]child, 1+rng.Intn(12))
		for i := range kids {
			kids[i] = child{i: i, g: rng.Intn(4), h: rng.Intn(4), f: rng.Intn(8)}
		}
		sortChildren(kids)
		kids[0].f += rng.Intn(6)
		want := slices.Clone(kids)
		slices.SortStableFunc(want, compareChildren)
		reinsertFirst(kids)
		return slices.Equal(kids, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
