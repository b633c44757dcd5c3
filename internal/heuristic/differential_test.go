package heuristic

import (
	"fmt"
	"math/rand"
	"testing"

	"tupelo/internal/fira"
	"tupelo/internal/relation"
)

// allKinds is every evaluator the package can build — the paper's eight
// plus the extended kinds.
func allKinds() []Kind {
	return append(Kinds(), ExtendedKinds()...)
}

// diffRandDB builds a small random database whose tokens overlap the ones
// randChainOp proposes, so operator chains keep producing partial matches
// (the interesting regime for every heuristic).
func diffRandDB(rng *rand.Rand) *relation.Database {
	names := []string{"R", "S", "T"}
	n := 1 + rng.Intn(3)
	rels := make([]*relation.Relation, 0, n)
	for i := 0; i < n; i++ {
		arity := 1 + rng.Intn(3)
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d_%d", i, j)
		}
		r := relation.MustNew(names[i], attrs)
		for k := rng.Intn(3); k > 0; k-- {
			row := make(relation.Tuple, arity)
			for j := range row {
				// Values drawn from a tiny pool so promote/deref chains can
				// collide tokens across the ATT and VALUE categories.
				row[j] = fmt.Sprintf("v%d", rng.Intn(5))
			}
			var err error
			if r, err = r.Insert(row); err != nil {
				panic(err)
			}
		}
		rels = append(rels, r)
	}
	return relation.MustDatabase(rels...)
}

// randChainOp proposes a random operator over tokens present in the state
// (and a few fresh ones). Many proposals fail their preconditions; the
// caller just skips those, exactly as the search's candidate application
// does.
func randChainOp(rng *rand.Rand, db *relation.Database) fira.Op {
	rels := db.Relations()
	r := rels[rng.Intn(len(rels))]
	attrs := r.Attrs()
	anyAttr := func() string {
		if len(attrs) == 0 {
			return "aX"
		}
		return attrs[rng.Intn(len(attrs))]
	}
	switch rng.Intn(9) {
	case 0:
		return fira.RenameRel{From: r.Name(), To: fmt.Sprintf("N%d", rng.Intn(4))}
	case 1:
		return fira.RenameAtt{Rel: r.Name(), From: anyAttr(), To: fmt.Sprintf("b%d", rng.Intn(4))}
	case 2:
		return fira.Drop{Rel: r.Name(), Attr: anyAttr()}
	case 3:
		return fira.Promote{Rel: r.Name(), NameAttr: anyAttr(), ValueAttr: anyAttr()}
	case 4:
		return fira.Demote{Rel: r.Name()}
	case 5:
		return fira.Partition{Rel: r.Name(), Attr: anyAttr()}
	case 6:
		// Two-relation ops remove two fragments and add one — the
		// multi-fragment delta path.
		o := rels[rng.Intn(len(rels))]
		return fira.Product{Left: r.Name(), Right: o.Name()}
	case 7:
		o := rels[rng.Intn(len(rels))]
		return fira.Union{Left: r.Name(), Right: o.Name()}
	default:
		return fira.Merge{Rel: r.Name(), Attr: anyAttr()}
	}
}

// TestDifferentialIncrementalEqualsScratch is the differential property test
// behind the incremental API: for every heuristic kind, walking a random
// operator chain and estimating each state by delta-merging against its
// parent's aggregate must give exactly the estimate a from-scratch
// Estimate() computes — not approximately, bit-identically, because search
// order depends on ties. Each step seeds the parent's aggregate, as an
// expansion does, and a ρ^att or π̄ step whose preview is Derivable is also
// estimated from its edit (EstimateEdit).
func TestDifferentialIncrementalEqualsScratch(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tgt := diffRandDB(rng)
		db := diffRandDB(rng)
		for _, kind := range allKinds() {
			e := New(kind, tgt, 7)
			inc, ok := AsIncremental(e)
			if !ok {
				// H0 has nothing to compute; Levenshtein edits the whole
				// canonical string, which has no fragment decomposition.
				if kind != H0 && kind != Levenshtein {
					t.Fatalf("%s: expected incremental capability", kind)
				}
				continue
			}
			cur := db
			if got, want := e.Estimate(cur), finishOf(inc, inc.Seed(cur)); got != want {
				t.Fatalf("seed %d %s: Seed/Estimate disagree at start: %d vs %d", seed, kind, want, got)
			}
			steps := 0
			for i := 0; i < 30 && steps < 12; i++ {
				op := randChainOp(rng, cur)
				next, err := op.Apply(cur, nil)
				if err != nil {
					continue // precondition failure — not a successor
				}
				steps++
				agg := inc.Seed(cur)
				want := e.Estimate(next)
				if got := inc.EstimateDelta(agg, deltaOf(cur, next)); got != want {
					t.Fatalf("seed %d %s after %s (step %d): incremental %d != scratch %d",
						seed, kind, op, steps, got, want)
				}
				if ed, ok := editOf(cur, op); ok {
					if got := inc.EstimateEdit(agg, ed); got != want {
						t.Fatalf("seed %d %s after %s (step %d): edit estimate %d != scratch %d",
							seed, kind, op, steps, got, want)
					}
				}
				cur = next
			}
		}
	}
}

// editOf previews a ρ^att or π̄ op on db and returns its edit when the
// preview answers and the child is Derivable.
func editOf(db *relation.Database, op fira.Op) (relation.Edit, bool) {
	var (
		c  relation.ChildHash
		ok bool
	)
	switch o := op.(type) {
	case fira.RenameAtt:
		_, c, ok = o.ChildKey(db)
	case fira.Drop:
		_, c, ok = o.ChildKey(db)
	}
	if !ok || !c.Derivable() {
		return relation.Edit{}, false
	}
	return c.Edit(), true
}

// deltaOf is the Delta of a copy-on-write parent/child pair: the fragments
// of the relations relation.Diff reports.
func deltaOf(parent, child *relation.Database) Delta {
	removed, added := relation.Diff(parent, child)
	var d Delta
	for _, r := range removed {
		d.Removed = append(d.Removed, r.TNFFragment())
	}
	for _, r := range added {
		d.Added = append(d.Added, r.TNFFragment())
	}
	return d
}

// finishOf runs EstimateDelta with an empty delta, which must re-finish
// the aggregate's own sums.
func finishOf(inc IncrementalEvaluator, a Agg) int {
	return inc.EstimateDelta(a, Delta{})
}

// TestDifferentialDeltaIdentity pins the empty-delta and identity-rename
// estimates for every kind: merging no fragments, or renaming an attribute
// to itself, must give the state's own estimate, and no estimate may change
// the aggregate it reads.
func TestDifferentialDeltaIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tgt := diffRandDB(rng)
	x := diffRandDB(rng)
	r := x.RelationView()[0]
	a := r.AttrView()[0]
	same, ok := r.RenamedHash(a, a)
	if !ok {
		t.Fatalf("RenamedHash(%s, %s) declined", a, a)
	}
	for _, kind := range allKinds() {
		e := New(kind, tgt, 5)
		inc, ok := AsIncremental(e)
		if !ok {
			continue
		}
		want := e.Estimate(x)
		agg := inc.Seed(x)
		v1 := inc.EstimateDelta(agg, Delta{})
		v2 := inc.EstimateEdit(agg, same.Edit())
		v3 := inc.EstimateDelta(agg, Delta{})
		if v1 != want || v2 != want || v3 != want {
			t.Fatalf("%s: empty delta %d, identity rename %d, empty delta again %d; scratch %d",
				kind, v1, v2, v3, want)
		}
	}
}
