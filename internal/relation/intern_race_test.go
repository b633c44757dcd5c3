package relation

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestInternConcurrent hammers the run-wide intern dictionary from many
// goroutines with heavily overlapping strings — the access pattern of
// concurrent discoveries (portfolio members, server jobs) computing
// fragments for states that share tokens. Run under -race (CI does), it pins two properties: the dictionary
// publication is race-free, and interning is consistent — every goroutine
// gets the same Symbol for the same string, and distinct strings never
// collapse.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 16
	const tokens = 64
	results := make([][]Symbol, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			syms := make([]Symbol, tokens)
			for i := range syms {
				// Every goroutine interns the same token set, permuted so
				// first-interning races are spread across the set.
				tok := fmt.Sprintf("race-tok-%d", (i+g*7)%tokens)
				syms[(i+g*7)%tokens] = Intern(tok)
			}
			results[g] = syms
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d interned token %d as %v, goroutine 0 as %v",
					g, i, results[g][i], results[0][i])
			}
		}
	}
	seen := make(map[Symbol]bool, tokens)
	for i, s := range results[0] {
		if seen[s] {
			t.Fatalf("distinct tokens collapsed onto symbol %v (token %d)", s, i)
		}
		seen[s] = true
		if got, ok := LookupSymbol(fmt.Sprintf("race-tok-%d", i)); !ok || got != s {
			t.Fatalf("LookupSymbol disagrees with Intern for token %d", i)
		}
	}
}

// TestFragmentMemoConcurrent races fragment computation on relations shared
// copy-on-write between successor-like states, as concurrent discoveries
// over one shared input do when they delta-merge successors that kept the
// same untouched input relation. The sync.Once memo must hand every goroutine the
// same *Fragment, fully built.
func TestFragmentMemoConcurrent(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		shared := MustNew("Shared", []string{"A", "B"},
			Tuple{"x", "y"}, Tuple{"z", "w"})
		frags := make([]*Fragment, 16)
		var wg sync.WaitGroup
		for g := range frags {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				frags[g] = shared.TNFFragment()
			}(g)
		}
		wg.Wait()
		for g := 1; g < len(frags); g++ {
			if frags[g] != frags[0] {
				t.Fatalf("trial %d: goroutine %d got a different fragment pointer", trial, g)
			}
		}
		f := frags[0]
		// 2 tuples × arity 2 = 4 TNF cell-rows.
		if f.Tuples != 2 || f.RowCount != 4 || len(f.Vec) == 0 || f.VecSq == 0 {
			t.Fatalf("trial %d: fragment incompletely published: %+v", trial, f)
		}
	}
}

// TestFragmentPartsConcurrent races the first Parts calls on a fragment, as
// concurrent hL discoveries over one shared input do. Every goroutine must
// get the one published slice (racing decoders agree on the winner), and
// it must hold the fragment's rows in sorted order.
func TestFragmentPartsConcurrent(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		f := MustNew("Shared", []string{"A", "B"},
			Tuple{"x", "y"}, Tuple{"z", "w"}, Tuple{"x", ""}).TNFFragment()
		parts := make([][]string, 16)
		var wg sync.WaitGroup
		for g := range parts {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				parts[g] = f.Parts()
			}(g)
		}
		wg.Wait()
		for g := 1; g < len(parts); g++ {
			if &parts[g][0] != &parts[0][0] {
				t.Fatalf("trial %d: goroutine %d got a different Parts slice", trial, g)
			}
		}
		want := []string{"SharedAx", "SharedAx", "SharedAz", "SharedB", "SharedBw", "SharedBy"}
		if !slices.Equal(parts[0], want) {
			t.Fatalf("trial %d: Parts = %q, want %q", trial, parts[0], want)
		}
	}
}

// TestHashWhileInterning races Hash against interning: every rename below
// interns a fresh attribute name while other goroutines hash, so Hash reads
// its signature and order-key snapshot while the dictionary grows. The
// renames share the one-row base relation's column headers, and each must
// hash like the same relation built from scratch.
func TestHashWhileInterning(t *testing.T) {
	base := MustNew("S", []string{"attribute_1", "attribute_2"}, Tuple{"v1", "v2"})
	want := base.Hash()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("attribute_%d_%d", g, i)
				ren, err := base.WithAttrRenamed("attribute_1", name)
				if err != nil {
					t.Error(err)
					return
				}
				fresh := MustNew("S", []string{name, "attribute_2"}, Tuple{"v1", "v2"})
				if ren.Hash() != fresh.Hash() || ren.TNFFragment().VecSq != 2 || len(ren.DistinctSymbols(0)) != 1 {
					t.Errorf("rename to %s: derived forms differ from a fresh build", name)
					return
				}
				back, err := ren.WithAttrRenamed(name, "attribute_1")
				if err != nil {
					t.Error(err)
					return
				}
				if back.Hash() != want {
					t.Errorf("renaming %s back changed the hash", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
