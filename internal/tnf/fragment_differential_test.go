package tnf

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"tupelo/internal/relation"
)

// These properties cross-check the columnar TNF fragments — the symbol-space
// counters the incremental heuristics consume — against this package's
// string-path encoding, which remains the reference semantics. Every count
// the fragment carries must be derivable from Encode's rows, and the flat
// sorted layout must keep its invariants: strictly increasing keys, positive
// counts, and binary-search lookups that agree with a linear scan.

// fragmentsOf returns the per-relation fragments of db keyed by relation
// name.
func fragmentsOf(db *relation.Database) map[string]*relation.Fragment {
	out := make(map[string]*relation.Fragment)
	for _, r := range db.Relations() {
		out[r.Name()] = r.TNFFragment()
	}
	return out
}

// randomSparseDatabase is randomDatabase with absent cells: each value is
// empty with probability 1/4, so Vals must skip cells that Vec still counts
// under the empty value.
func randomSparseDatabase(rng *rand.Rand) *relation.Database {
	db := randomDatabase(rng)
	rels := db.Relations()
	for i, r := range rels {
		out := relation.MustNew(r.Name(), r.Attrs())
		for _, row := range r.Rows() {
			for j := range row {
				if rng.Intn(4) == 0 {
					row[j] = ""
				}
			}
			var err error
			if out, err = out.Insert(row); err != nil {
				panic(err)
			}
		}
		rels[i] = out
	}
	return relation.MustDatabase(rels...)
}

// randomOneRowDatabase draws one-row relations, the shape of every exp1
// state, for which TNFFragment takes its own branch: arities 1 to 12,
// values from a pool small enough that some repeat across columns, and
// empty cells.
func randomOneRowDatabase(rng *rand.Rand) *relation.Database {
	rels := make([]*relation.Relation, 1+rng.Intn(3))
	for i := range rels {
		arity := 1 + rng.Intn(12)
		names := rng.Perm(12)
		attrs := make([]string, arity)
		row := make(relation.Tuple, arity)
		for j := range attrs {
			attrs[j] = "a" + strconv.Itoa(names[j])
			if rng.Intn(4) > 0 {
				row[j] = "v" + strconv.Itoa(rng.Intn(4))
			}
		}
		rels[i] = relation.MustNew("R"+strconv.Itoa(i), attrs, row)
	}
	return relation.MustDatabase(rels...)
}

// checkFragments runs prop over every generator.
func checkFragments(t *testing.T, prop func(db *relation.Database) bool) {
	t.Helper()
	for _, gen := range []func(*rand.Rand) *relation.Database{randomDatabase, randomSparseDatabase, randomOneRowDatabase} {
		f := func(seed int64) bool { return prop(gen(rand.New(rand.NewSource(seed)))) }
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropertyFragmentTriplesMatchEncode: the union of the fragments' Vec
// multisets must equal the (REL, ATT, VALUE) triple multiset of the string
// encoding, and each fragment's RowCount and VecSq (= Σ c²) must agree with
// it.
func TestPropertyFragmentTriplesMatchEncode(t *testing.T) {
	checkFragments(t, func(db *relation.Database) bool {
		tab := Encode(db)
		want := make(map[[3]string]int)
		rowsPerRel := make(map[string]int)
		for _, tr := range tab.Triples() {
			want[tr]++
			rowsPerRel[tr[0]]++
		}

		got := make(map[[3]string]int)
		for name, frag := range fragmentsOf(db) {
			if frag.RowCount != rowsPerRel[name] {
				return false
			}
			var sq int64
			for _, e := range frag.Vec {
				tr := e.Triple
				got[[3]string{tr[0].String(), tr[1].String(), tr[2].String()}] += int(e.N)
				sq += int64(e.N) * int64(e.N)
			}
			if sq != frag.VecSq || frag.Dot(frag) != sq {
				return false
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	})
}

// TestPropertyFragmentSetsMatchEncode: the merged Atts/Vals key sets must
// equal the encoding's AttSet/ValueSet, and the multiset counts must sum to
// the number of rows carrying each token.
func TestPropertyFragmentSetsMatchEncode(t *testing.T) {
	checkFragments(t, func(db *relation.Database) bool {
		tab := Encode(db)
		attCount := make(map[string]int)
		valCount := make(map[string]int)
		for _, r := range tab.Rows {
			if r.Att != "" {
				attCount[r.Att]++
			}
			if r.Value != "" {
				valCount[r.Value]++
			}
		}

		gotAtt := make(map[string]int)
		gotVal := make(map[string]int)
		for _, frag := range fragmentsOf(db) {
			for _, e := range frag.Atts {
				gotAtt[e.Sym.String()] += int(e.N)
			}
			for _, e := range frag.Vals {
				gotVal[e.Sym.String()] += int(e.N)
			}
		}
		if len(gotAtt) != len(tab.AttSet()) || len(gotVal) != len(tab.ValueSet()) {
			return false
		}
		for k, c := range attCount {
			if gotAtt[k] != c {
				return false
			}
		}
		for k, c := range valCount {
			if gotVal[k] != c {
				return false
			}
		}
		return true
	})
}

// TestPropertyFragmentSortedInvariants: every multiset of a fragment has
// strictly increasing keys and positive counts, and the binary-search
// lookups AttCount/ValCount agree with a linear scan for every token of the
// database — present in the fragment or not.
func TestPropertyFragmentSortedInvariants(t *testing.T) {
	scan := func(xs []relation.SymbolCount, s relation.Symbol) int {
		for _, e := range xs {
			if e.Sym == s {
				return int(e.N)
			}
		}
		return 0
	}
	checkFragments(t, func(db *relation.Database) bool {
		tokens := []relation.Symbol{relation.EmptySymbol(), relation.Intern("no-such-token")}
		for _, tr := range Encode(db).Triples() {
			for _, s := range tr {
				tokens = append(tokens, relation.Intern(s))
			}
		}
		for _, frag := range fragmentsOf(db) {
			for _, xs := range [][]relation.SymbolCount{frag.Atts, frag.Vals} {
				for i, e := range xs {
					if e.N <= 0 || i > 0 && xs[i-1].Sym >= e.Sym {
						return false
					}
				}
			}
			for i, e := range frag.Vec {
				if e.N <= 0 || e.Triple[0] != frag.Rel || i > 0 && frag.Vec[i-1].Triple.Compare(e.Triple) >= 0 {
					return false
				}
			}
			for _, s := range tokens {
				if frag.AttCount(s) != scan(frag.Atts, s) || frag.ValCount(s) != scan(frag.Vals, s) {
					return false
				}
			}
		}
		return true
	})
}

// TestPropertyFragmentDotMatchesEncode: the merge-walk dot product of two
// fragments equals the dot product of the encodings' triple counts under
// the same relation name, and is 0 across differently named relations.
func TestPropertyFragmentDotMatchesEncode(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomSparseDatabase(rand.New(rand.NewSource(seedA)))
		b := randomDatabase(rand.New(rand.NewSource(seedB)))
		countB := make(map[[3]string]int)
		for _, tr := range Encode(b).Triples() {
			countB[tr]++
		}
		fb := fragmentsOf(b)
		for _, r := range a.Relations() {
			var want int64
			for _, tr := range Encode(relation.MustDatabase(r)).Triples() {
				want += int64(countB[tr])
			}
			for nb, g := range fb {
				got := r.TNFFragment().Dot(g)
				if nb == r.Name() && got != want || nb != r.Name() && got != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFragmentPartsMatchCanonicalString: merging the fragments'
// lazily decoded Parts in sorted order must reproduce CanonicalString — the
// exact string the Levenshtein heuristic compares.
func TestPropertyFragmentPartsMatchCanonicalString(t *testing.T) {
	checkFragments(t, func(db *relation.Database) bool {
		var parts []string
		for _, frag := range fragmentsOf(db) {
			parts = append(parts, frag.Parts()...)
		}
		sort.Strings(parts)
		return strings.Join(parts, "") == Encode(db).CanonicalString()
	})
}
