package relation

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// pinnedRelations are the relations whose Hash values TestHashValuesPinned
// pins. Together they cover every branch of the sorted attribute order the
// hash is built on: names that tie on their first 8 bytes, names that differ
// only after it, NUL bytes and non-ASCII text, and a schema wider than
// attrScanMax.
func pinnedRelations() map[string]*Relation {
	// The source of the exp1 matching pair at n=8 (datagen.MatchingPair),
	// built inline because datagen imports this package.
	attrs := make([]string, 8)
	row := make(Tuple, 8)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
		row[i] = fmt.Sprintf("a%d", i+1)
	}
	matching := MustNew("S", attrs, row)
	renamed, err := matching.WithAttrRenamed("A3", "B3")
	if err != nil {
		panic(err)
	}
	multi := MustNew("R", []string{"A", "B"}, Tuple{"x", "1"}, Tuple{"x", "2"}, Tuple{"y", "1"})
	dropped, err := multi.WithoutAttr("B")
	if err != nil {
		panic(err)
	}
	wide := make([]string, 12)
	wideRow := make(Tuple, 12)
	for i := range wide {
		// Reverse order, so the sort has work to do.
		wide[i] = fmt.Sprintf("A%d", 12-i)
		wideRow[i] = fmt.Sprintf("v%d", i%5)
	}
	return map[string]*Relation{
		"matching":   matching,
		"renamed":    renamed,
		"multi-row":  multi,
		"drop-merge": dropped,
		"prefix-8": MustNew("T", []string{"attribute_2", "attribute_10", "attribute_1"},
			Tuple{"v2", "v10", "v1"}, Tuple{"w2", "w10", "w1"}),
		"late-bytes": MustNew("U", []string{"abcdefghY", "abcdefghX", "ab\x00", "ab", "été", "ête", "日本語"},
			Tuple{"p", "q", "\x00", "", "é", "ê", "語"}),
		"arity-12": MustNew("W", wide, wideRow),
	}
}

// TestHashValuesPinned pins Relation.Hash and Database.Key byte for byte.
// Both are content addresses the mapping repository persists, so a change
// to how they are computed must leave every value as it was.
func TestHashValuesPinned(t *testing.T) {
	want := map[string]string{
		"matching":   "38c966f3485c9ad5f88048a4b69e7f38",
		"renamed":    "3872dcd021dd12e8919feac53478f6a2",
		"multi-row":  "8bd30bb0360dfb57aac9da394de20d98",
		"drop-merge": "f765508a56b0ab4f3485ce565c9e6dbf",
		"prefix-8":   "ada8fa4474b798d854bca24f114dcc7e",
		"late-bytes": "c2a148ddda320090f992171a2d9adccc",
		"arity-12":   "4dac2fa81fde10f32a471c9478759534",
	}
	rels := pinnedRelations()
	if got := rels["drop-merge"].Len(); got != 2 {
		t.Fatalf("drop kept %d rows, want the 3 rows collapsed to 2", got)
	}
	for name, r := range rels {
		h := r.Hash()
		if got := hex.EncodeToString(h[:]); got != want[name] {
			t.Errorf("%s: Hash = %s, want %s", name, got, want[name])
		}
		if got := MustDatabase(r).Key(); got != string(h[:]) {
			t.Errorf("%s: a one-relation Key must be the relation's Hash", name)
		}
	}
	all := make([]*Relation, 0, len(rels))
	for _, name := range []string{"matching", "multi-row", "prefix-8", "late-bytes", "arity-12"} {
		all = append(all, rels[name])
	}
	const wantKey = "e9267bd1a2c4832955085dbe7f4e0f9f"
	if got := hex.EncodeToString([]byte(MustDatabase(all...).Key())); got != wantKey {
		t.Errorf("Database.Key = %s, want %s", got, wantKey)
	}
}

// randomAttrNames draws n distinct attribute names built to stress an
// order that looks at a fixed-width prefix first: shared prefixes of
// exactly 8 bytes and longer, lengths on both sides of 8, NUL bytes and
// multi-byte UTF-8.
func randomAttrNames(rng *rand.Rand, n int) []string {
	prefixes := []string{"", "a", "ab", "abcdefg", "abcdefgh", "attribute_", "ab\x00", "\x00", "é", "日本"}
	pieces := []string{"", "0", "1", "10", "2", "\x00", "\xff", "x", "é", "z9"}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		s := prefixes[rng.Intn(len(prefixes))]
		for k := rng.Intn(3); k >= 0; k-- {
			s += pieces[rng.Intn(len(pieces))]
		}
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// TestPropertySortedAttrOrderMatchesStrings: the attribute order behind
// Hash and the fingerprint is exactly the byte-wise string order.
func TestPropertySortedAttrOrderMatchesStrings(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs := randomAttrNames(rng, 1+rng.Intn(14))
		r := MustNew("R", attrs)
		want := append([]string(nil), attrs...)
		sort.Strings(want)
		for i, j := range r.sortedAttrOrder() {
			if attrs[j] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
