package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// --- Insert dedup: complexity and semantics ------------------------------
//
// Relation.Insert once scanned every existing tuple per call — O(rows)
// string comparisons — so a chain of n copy-on-write inserts cost O(n²).
// The columnar rewrite checks duplicates against the memoized symbol
// row-key set: one map lookup per insert, whatever the relation's size.
// These tests pin both the semantics and the complexity class.

// dupRelation builds an n-row relation and returns it with one of its own
// rows, ready for a duplicate insert.
func dupRelation(tb testing.TB, n int) (*Relation, Tuple) {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{fmt.Sprintf("v%d", i), "x"}
	}
	r, err := New("R", []string{"A", "B"}, rows...)
	if err != nil {
		tb.Fatal(err)
	}
	return r, rows[n/2].Clone()
}

func TestInsertDuplicateSemantics(t *testing.T) {
	r, dup := dupRelation(t, 16)
	out, err := r.Insert(dup)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != r.Len() {
		t.Fatalf("duplicate insert grew the relation: %d -> %d rows", r.Len(), out.Len())
	}
	if !out.Equal(r) {
		t.Fatalf("duplicate insert changed the relation")
	}
	fresh, err := r.Insert(Tuple{"brand-new", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != r.Len()+1 {
		t.Fatalf("fresh insert: %d rows, want %d", fresh.Len(), r.Len()+1)
	}
	if r.Len() != 16 {
		t.Fatalf("insert mutated the original: %d rows", r.Len())
	}
}

// insertAllocs measures the steady-state allocations of one duplicate
// insert against an n-row relation (the row-key memo warmed by a first
// call, as in a search's insert chains).
func insertAllocs(tb testing.TB, n int) float64 {
	r, dup := dupRelation(tb, n)
	if _, err := r.Insert(dup); err != nil {
		tb.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := r.Insert(dup); err != nil {
			tb.Fatal(err)
		}
	})
}

// TestInsertDuplicateAllocsConstant pins the complexity fix: the per-insert
// allocation count must not grow with the relation's size. (The old
// tuple-scan dedup showed up here as O(n) work and the pre-memo key
// encoding as O(n) garbage.)
func TestInsertDuplicateAllocsConstant(t *testing.T) {
	small := insertAllocs(t, 8)
	large := insertAllocs(t, 1024)
	if large > small {
		t.Fatalf("duplicate-insert allocations grew with relation size: %.1f at n=8, %.1f at n=1024", small, large)
	}
}

func BenchmarkInsertDuplicate(b *testing.B) {
	r, dup := dupRelation(b, 512)
	if _, err := r.Insert(dup); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Insert(dup); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Differential: columnar identities vs the string path ----------------
//
// The columnar layer keeps the canonical string rendering as its reference
// semantics; these properties cross-check the int32-path identities against
// it on randomized relation pairs.

// TestPropertyHashIffFingerprint: the columnar 128-bit hash and the
// string-path fingerprint must induce the same equivalence on relations.
func TestPropertyHashIffFingerprint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomRelation(rng, "R")
		b := randomRelation(rng, "R")
		for i := rng.Intn(3); i > 0; i-- {
			a = mutate(rng, a)
		}
		for i := rng.Intn(3); i > 0; i-- {
			b = mutate(rng, b)
		}
		return (a.Hash() == b.Hash()) == (a.Fingerprint() == b.Fingerprint())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDistinctValuesMatchRowScan: the memoized column-path distinct
// symbols (first-occurrence order) and values (sorted) must equal a naive
// scan over the decoded string rows — for random relations of up to 70
// insertions, on both sides of rowScanMax, and for one-row and rowless
// ones, whose columns are their own distinct symbols.
func TestPropertyDistinctValuesMatchRowScan(t *testing.T) {
	matches := func(r *Relation) bool {
		rows := r.Rows()
		for j, a := range r.Attrs() {
			seen := make(map[string]bool)
			var first []string
			for _, row := range rows {
				if !seen[row[j]] {
					seen[row[j]] = true
					first = append(first, row[j])
				}
			}
			syms := r.DistinctSymbols(j)
			if len(syms) != len(first) {
				return false
			}
			for i, s := range syms {
				if s.String() != first[i] {
					return false
				}
			}
			sort.Strings(first)
			got := r.DistinctValues(a)
			if len(got) != len(first) {
				return false
			}
			for i := range got {
				if got[i] != first[i] {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelationRows(rng, "R", 70)
		row := make(Tuple, r.Arity())
		for j := range row {
			row[j] = fmt.Sprintf("%d", rng.Intn(3)) // repeats across columns
		}
		return matches(r) && matches(MustNew("R", r.Attrs(), row)) && matches(MustNew("R", r.Attrs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHasEmptyCellMatchesRowScan: the column-walking empty-cell
// probe (µ's precondition) against the decoded rows.
func TestPropertyHasEmptyCellMatchesRowScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R")
		if rng.Intn(2) == 0 && r.Arity() > 0 {
			row := make(Tuple, r.Arity())
			for j := range row {
				if rng.Intn(2) == 0 {
					row[j] = fmt.Sprintf("w%d", rng.Intn(5))
				}
			}
			var err error
			if r, err = r.Insert(row); err != nil {
				return false
			}
		}
		want := false
		for _, row := range r.Rows() {
			for _, v := range row {
				if v == "" {
					want = true
				}
			}
		}
		return r.HasEmptyCell() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- Concurrent memoization ----------------------------------------------

// TestConcurrentMemoFamilies races every lazily memoized identity of one
// shared relation — hash, fingerprint, fragment, parts, distinct values,
// and the row-key set behind Insert — as concurrent discoveries over one
// shared input do when they identify states that share a relation
// copy-on-write. Run
// under -race in CI; correctness check: every goroutine must observe the
// same values.
func TestConcurrentMemoFamilies(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := MustNew("Shared", []string{"B", "A"},
			Tuple{"x", "y"}, Tuple{"z", ""}, Tuple{"q", "y"})
		const goroutines = 12
		type view struct {
			hash  [16]byte
			fp    string
			frag  *Fragment
			parts string
			vals  string
			dup   int
		}
		views := make([]view, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				v := view{hash: r.Hash(), fp: r.Fingerprint(), frag: r.TNFFragment()}
				for _, p := range v.frag.Parts() {
					v.parts += p + "|"
				}
				for _, a := range r.Attrs() {
					for _, val := range r.DistinctValues(a) {
						v.vals += val + "|"
					}
				}
				out, err := r.Insert(Tuple{"z", ""})
				if err != nil {
					t.Error(err)
					return
				}
				v.dup = out.Len()
				views[g] = v
			}(g)
		}
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			if views[g] != views[0] {
				t.Fatalf("trial %d: goroutine %d observed %+v, goroutine 0 %+v", trial, g, views[g], views[0])
			}
		}
		if views[0].dup != r.Len() {
			t.Fatalf("concurrent duplicate insert grew the relation: %d -> %d", r.Len(), views[0].dup)
		}
	}
}

// dedupRelation builds a relation of exactly n distinct rows over two to
// four columns whose small shared domain makes values repeat, so dropping
// or projecting away columns collapses rows.
func dedupRelation(rng *rand.Rand, n int) *Relation {
	arity := 2 + rng.Intn(3)
	dom := 2
	for pow(dom, arity) < 2*n {
		dom++
	}
	b, err := NewBuilder("R", []string{"A", "B", "C", "D"}[:arity])
	if err != nil {
		panic(err)
	}
	row := make(Tuple, arity)
	for b.Len() < n {
		for j := range row {
			row[j] = fmt.Sprintf("%d", rng.Intn(dom))
		}
		if err := b.Add(row); err != nil {
			panic(err)
		}
	}
	return b.Relation()
}

func pow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}

// mapProjection is the reference projection: decoded rows restricted to
// the columns idx, deduplicated first-wins through a map of joined values.
func mapProjection(r *Relation, idx []int) []Tuple {
	seen := make(map[string]bool)
	var out []Tuple
	for _, row := range r.Rows() {
		p := make(Tuple, len(idx))
		for k, j := range idx {
			p[k] = row[j]
		}
		if key := strings.Join(p, "\x00"); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// mapDistinct is the reference for DistinctSymbols: column j's decoded
// values, deduplicated first-wins through a map.
func mapDistinct(r *Relation, j int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, row := range r.Rows() {
		if !seen[row[j]] {
			seen[row[j]] = true
			out = append(out, row[j])
		}
	}
	return out
}

// TestPropertyDedupMatchesMapReference holds WithoutAttr, Project and
// DistinctSymbols to map-based references at row counts on both sides of
// rowScanMax, where deduplication switches from scanning to a map. The
// rows repeat values, so projections collapse rows on both paths, and the
// survivors must be the first occurrences, in order.
func TestPropertyDedupMatchesMapReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, rowScanMax - 1, rowScanMax, rowScanMax + 1, 2 * rowScanMax} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			collapsed := 0
			sameRows := func(got *Relation, attrs []string, want []Tuple) bool {
				if !slices.Equal(got.Attrs(), attrs) || got.Len() != len(want) {
					return false
				}
				for i, row := range got.Rows() {
					if !row.Equal(want[i]) {
						return false
					}
				}
				if len(want) < n {
					collapsed++
				}
				return true
			}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				r := dedupRelation(rng, n)
				attrs := r.Attrs()
				for j, a := range attrs {
					idx := make([]int, 0, len(attrs)-1)
					for k := range attrs {
						if k != j {
							idx = append(idx, k)
						}
					}
					got, err := r.WithoutAttr(a)
					if err != nil || !sameRows(got, slices.Delete(slices.Clone(attrs), j, j+1), mapProjection(r, idx)) {
						t.Logf("drop %s of\n%s\ngot\n%s", a, r, got)
						return false
					}
				}
				idx := rng.Perm(len(attrs))[:1+rng.Intn(len(attrs))]
				proj := make([]string, len(idx))
				for k, j := range idx {
					proj[k] = attrs[j]
				}
				got, err := r.Project(proj)
				if err != nil || !sameRows(got, proj, mapProjection(r, idx)) {
					t.Logf("project %v of\n%s\ngot\n%s", proj, r, got)
					return false
				}
				fresh, _ := r.WithName("Fresh") // an unmemoized relation over the same columns
				for j := range attrs {
					var syms []string
					for _, s := range fresh.DistinctSymbols(j) {
						syms = append(syms, s.String())
					}
					if !slices.Equal(syms, mapDistinct(r, j)) {
						t.Logf("distinct symbols of column %d of\n%s\ngot %q", j, r, syms)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
			if n > 2 && collapsed == 0 {
				t.Fatalf("no projection of %d rows collapsed a row; the generator must repeat values", n)
			}
		})
	}
}
