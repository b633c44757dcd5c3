package fira

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tupelo/internal/relation"
)

// referenceMerge is µ on column j of r computed on decoded strings, the
// way µ's rebuild worked before it moved into symbol space: group the rows
// by their merge value, visit the groups in value order and each group's
// rows in tuple order, coalesce every group to fixpoint, and collect the
// results through a deduplicating Builder. It shares no code with Merge and
// is the oracle its tests hold it to.
func referenceMerge(r *relation.Relation, j int) (*relation.Relation, error) {
	groups := make(map[string][]relation.Tuple)
	var keys []string
	for _, row := range r.Rows() {
		k := row[j]
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], row)
	}
	sort.Strings(keys)
	out, err := relation.NewBuilder(r.Name(), r.Attrs())
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		rows := groups[k]
		sort.Slice(rows, func(a, b int) bool {
			ra, rb := rows[a], rows[b]
			for i := range ra {
				if ra[i] != rb[i] {
					return ra[i] < rb[i]
				}
			}
			return false
		})
		for _, row := range referenceMergeGroup(rows) {
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out.Relation(), nil
}

// referenceMergeGroup coalesces compatible tuples of one group to fixpoint,
// merging the first compatible pair in visiting order each round.
func referenceMergeGroup(rows []relation.Tuple) []relation.Tuple {
	for changed := true; changed; {
		changed = false
	outer:
		for i := 0; i < len(rows); i++ {
			for k := i + 1; k < len(rows); k++ {
				if m, ok := referenceCoalesce(rows[i], rows[k]); ok {
					rows[i] = m
					rows = append(rows[:k], rows[k+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	return rows
}

// referenceCoalesce merges two tuples whose values agree wherever neither
// is absent (the empty string).
func referenceCoalesce(a, b relation.Tuple) (relation.Tuple, bool) {
	out := make(relation.Tuple, len(a))
	for i := range a {
		switch {
		case a[i] == b[i], b[i] == "":
			out[i] = a[i]
		case a[i] == "":
			out[i] = b[i]
		default:
			return nil, false
		}
	}
	return out, true
}

// mergeVocabulary is the value domain of the random µ inputs. Values of one
// column share a first letter, so columns repeat values; the long values
// share their first eight bytes, so ordering them falls back from the order
// keys to the strings. Interned once, in descending string order, the
// values' symbol numbers run opposite to their string order: a rebuild
// that sorted raw symbols would visit groups and rows in the wrong order.
var mergeVocabulary = func() [][]string {
	cols := [][]string{
		{"k1", "k2", "k3", "kkkkkkkk-long-1", "kkkkkkkk-long-2"},
		{"a1", "a2", "aaaaaaaa-long-1", "aaaaaaaa-long-2"},
		{"b1", "b2", "b3"},
		{"c1", "c2", "cccccccc-long-1"},
		{"d1", "d2"},
	}
	var all []string
	for _, c := range cols {
		for _, v := range c {
			all = append(all, "µref-"+v)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(all)))
	for _, v := range all {
		relation.Intern(v)
	}
	for _, c := range cols {
		for i, v := range c {
			c[i] = "µref-" + v
		}
	}
	return cols
}()

// randomMergeRelation is a relation of arity 2–5 with 0–40 rows drawn from
// mergeVocabulary, a third of the cells absent.
func randomMergeRelation(rng *rand.Rand) *relation.Relation {
	arity := 2 + rng.Intn(4)
	attrs := []string{"K", "A", "B", "C", "D"}[:arity]
	b, err := relation.NewBuilder("R", attrs)
	if err != nil {
		panic(err)
	}
	for n := rng.Intn(41); n > 0; n-- {
		row := make(relation.Tuple, arity)
		for c := range row {
			if rng.Intn(3) > 0 {
				dom := mergeVocabulary[c]
				row[c] = dom[rng.Intn(len(dom))]
			}
		}
		if err := b.Add(row); err != nil {
			panic(err)
		}
	}
	return b.Relation()
}

// TestPropertyMergeMatchesReference holds µ to referenceMerge on random
// relations, with every attribute in turn as the merge column: Apply
// returns its input database exactly when the reference result equals the
// input relation, and otherwise a relation equal to the reference row for
// row, in the same order.
func TestPropertyMergeMatchesReference(t *testing.T) {
	identities, merges := 0, 0
	f := func(seed int64) bool {
		r := randomMergeRelation(rand.New(rand.NewSource(seed)))
		db := relation.MustDatabase(r)
		for j, a := range r.Attrs() {
			got, err := Merge{Rel: "R", Attr: a}.Apply(db, nil)
			if err != nil {
				t.Log(err)
				return false
			}
			ref, err := referenceMerge(r, j)
			if err != nil {
				t.Log(err)
				return false
			}
			if ref.Equal(r) {
				identities++
				if got != db {
					t.Logf("µ_%s of\n%s\nrebuilt a relation equal to its input", a, r)
					return false
				}
				continue
			}
			merges++
			gr, _ := got.Relation("R")
			if got == db || !sameRowsInOrder(gr, ref) {
				t.Logf("µ_%s of\n%s\ngot\n%s\nwant\n%s", a, r, gr, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if identities == 0 || merges == 0 {
		t.Fatalf("generator covered %d identity and %d coalescing merges; want both", identities, merges)
	}
}

// sameRowsInOrder reports whether two relations have the same schema and
// the same rows in the same order.
func sameRowsInOrder(a, b *relation.Relation) bool {
	aa, ba := a.Attrs(), b.Attrs()
	if a.Name() != b.Name() || len(aa) != len(ba) || a.Len() != b.Len() {
		return false
	}
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Row(i).Equal(b.Row(i)) {
			return false
		}
	}
	return true
}
