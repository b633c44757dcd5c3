package fira

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tupelo/internal/heuristic"
	"tupelo/internal/relation"
)

// keyedOp is an operator whose child key can be previewed.
type keyedOp interface {
	Op
	ChildKey(db *relation.Database) (key [16]byte, h relation.ChildHash, ok bool)
}

// Preview limits (relation.hashStackMax and relation's keyStackRels): past
// them a preview declines and the caller builds the child.
const (
	previewMaxAttrs = 32
	previewMaxRows  = 32
	previewMaxRels  = 8
)

// childKeyAttr names attribute k of a generated relation. Odd positions
// share their first eight bytes ("Attribut"), so the attribute sort must
// fall back from order keys to the strings.
func childKeyAttr(k int) string {
	if k%2 == 1 {
		return fmt.Sprintf("Attribute%02d", k)
	}
	return fmt.Sprintf("A%d", k)
}

// childKeyRelation builds relation name with the given arity and exactly
// the given number of rows. Column 0 is distinct per row, so the rows are;
// every other column draws from a vocabulary of vocab values, small enough
// that dropping column 0 collapses rows. A zero-arity relation holds at
// most one (empty) row.
func childKeyRelation(tb testing.TB, rng *rand.Rand, name string, arity, rows, vocab int) *relation.Relation {
	tb.Helper()
	attrs := make([]string, arity)
	for k := range attrs {
		attrs[k] = childKeyAttr(k)
	}
	if arity == 0 {
		rows = min(rows, 1)
	}
	cols := make([][]relation.Symbol, arity)
	for k := range cols {
		cols[k] = make([]relation.Symbol, rows)
		for i := range cols[k] {
			v := fmt.Sprintf("v%d", rng.Intn(vocab))
			if k == 0 {
				v = fmt.Sprintf("row%d", i)
			}
			cols[k][i] = relation.Intern(v)
		}
	}
	r, err := relation.NewFromColumns(name, attrs, cols, rows)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// childKeyDB places a relation of the given shape as R0 among nrels-1
// small filler relations.
func childKeyDB(tb testing.TB, rng *rand.Rand, nrels, arity, rows, vocab int) *relation.Database {
	tb.Helper()
	rels := []*relation.Relation{childKeyRelation(tb, rng, "R0", arity, rows, vocab)}
	for k := 1; k < nrels; k++ {
		rels = append(rels, childKeyRelation(tb, rng, fmt.Sprintf("R%d", k), 1+k%3, 1+k%4, 2))
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// childKeyOps lists the ρ^att and π̄ candidates on relation rel of db: every
// rename of every attribute to a fresh name (one that ties with the
// Attribut… prefix and one that does not), to an existing attribute, to
// the empty name and to itself, every drop, and the failure cases of an
// absent attribute and an absent relation.
func childKeyOps(rel *relation.Relation) []keyedOp {
	name := rel.Name()
	attrs := rel.AttrView()
	ops := []keyedOp{
		RenameAtt{Rel: name, From: "Absent", To: "Fresh"},
		Drop{Rel: name, Attr: "Absent"},
		RenameAtt{Rel: "NoSuchRel", From: childKeyAttr(0), To: "Fresh"},
		Drop{Rel: "NoSuchRel", Attr: childKeyAttr(0)},
	}
	for k, a := range attrs {
		ops = append(ops,
			RenameAtt{Rel: name, From: a, To: "Fresh"},
			RenameAtt{Rel: name, From: a, To: "Attribute99"},
			RenameAtt{Rel: name, From: a, To: attrs[(k+1)%len(attrs)]},
			RenameAtt{Rel: name, From: a, To: ""},
			RenameAtt{Rel: name, From: a, To: a},
			Drop{Rel: name, Attr: a},
		)
	}
	return ops
}

// childKeyTarget is a target for estimating db's children that shares
// their names and values: each relation of db under its own name, with its
// own rows, and two more attributes, Fresh and Attribute99 (the candidates'
// fresh rename targets), whose cells alternate between v0 and v1. A rename
// then moves dot-product mass between triples the target holds, a drop
// removes values and attributes the target wants, and the target is wider
// than db, so the hybrid heuristic's attribute deficit is its largest.
func childKeyTarget(tb testing.TB, db *relation.Database) *relation.Database {
	tb.Helper()
	var rels []*relation.Relation
	for _, r := range db.RelationView() {
		attrs := append(r.Attrs(), "Fresh", "Attribute99")
		cols := make([][]relation.Symbol, 0, len(attrs))
		for j := range r.Arity() {
			cols = append(cols, slices.Clone(r.Column(j)))
		}
		rows := r.Len()
		if r.Arity() == 0 {
			rows = 1 // a zero-arity relation's lone row gains the new cells
		}
		for k := range 2 {
			col := make([]relation.Symbol, rows)
			for i := range col {
				col[i] = relation.Intern(fmt.Sprintf("v%d", (i+k)%2))
			}
			cols = append(cols, col)
		}
		t, err := relation.NewFromColumns(r.Name(), attrs, cols, rows)
		if err != nil {
			tb.Fatal(err)
		}
		rels = append(rels, t)
	}
	tgt, err := relation.NewDatabase(rels...)
	if err != nil {
		tb.Fatal(err)
	}
	return tgt
}

// childKeyEstimator is one incremental heuristic against childKeyTarget,
// with the aggregate it seeds for the parent database.
type childKeyEstimator struct {
	inc    heuristic.IncrementalEvaluator
	parent heuristic.Agg
}

// childKeyEstimators seeds every incremental heuristic kind for db.
func childKeyEstimators(tb testing.TB, db *relation.Database) []childKeyEstimator {
	tb.Helper()
	tgt := childKeyTarget(tb, db)
	var out []childKeyEstimator
	for _, kind := range append(heuristic.Kinds(), heuristic.ExtendedKinds()...) {
		if inc, ok := heuristic.AsIncremental(heuristic.New(kind, tgt, 7)); ok {
			out = append(out, childKeyEstimator{inc, inc.Seed(db)})
		}
	}
	return out
}

// checkChildKey compares op's preview with Apply on db. When the preview
// answers, Apply must succeed, the child's Key must equal the previewed key,
// and the previewed hash must equal both a from-scratch hash of the rebuilt
// relation (on a Clone, which shares no memo) and the hash of a rebuild
// seeded with it. The fragment derived from the parent's must equal the
// rebuilt relation's, field by field, except that it declines exactly on a
// π̄ that collapses rows or leaves no attribute; where it derives, the
// estimate of every estimator from the child's edit against the parent's
// aggregate must equal a from-scratch estimate of the built child. When
// Apply fails, the preview must decline; within the preview limits it must
// otherwise answer.
func checkChildKey(t *testing.T, db *relation.Database, op keyedOp, ests []childKeyEstimator) {
	t.Helper()
	key, h, ok := op.ChildKey(db)
	next, err := op.Apply(db, nil)
	if err != nil {
		if ok {
			t.Fatalf("%s: preview answered, Apply failed: %v", op, err)
		}
		return
	}
	var relName string
	switch o := op.(type) {
	case RenameAtt:
		relName = o.Rel
	case Drop:
		relName = o.Rel
	}
	src, _ := db.Relation(relName)
	within := src.Arity() <= previewMaxAttrs && src.Len() <= previewMaxRows && db.Len() <= previewMaxRels
	if !ok {
		if within {
			t.Fatalf("%s: preview declined within its limits (arity %d, %d rows, %d relations)", op, src.Arity(), src.Len(), db.Len())
		}
		return
	}
	if got := next.Key(); got != string(key[:]) {
		t.Fatalf("%s: child key %x, previewed %x", op, got, key)
	}
	rebuilt, _ := next.Relation(relName)
	if got := rebuilt.Clone().Hash(); got != h.Sum() {
		t.Fatalf("%s: rebuilt relation hashes to %x, previewed %x", op, got, h.Sum())
	}
	_, drop := op.(Drop)
	declines := drop && (rebuilt.Len() < src.Len() || rebuilt.Arity() == 0)
	derived := h.Fragment()
	if h.Derivable() != (derived != nil) || (derived == nil) != declines {
		t.Fatalf("%s: derivable %v, derived %v, want a decline exactly when %v", op, h.Derivable(), derived != nil, declines)
	}
	if want := rebuilt.Clone().TNFFragment(); derived != nil && !derived.Equal(want) {
		t.Fatalf("%s: derived fragment %+v, rebuilt relation's %+v", op, derived, want)
	}
	if derived != nil {
		for _, e := range ests {
			if got, want := e.inc.EstimateEdit(e.parent, h.Edit()), e.inc.Estimate(next); got != want {
				t.Fatalf("%s: %s estimate from the edit %d, of the built child %d", op, e.inc.Name(), got, want)
			}
		}
	}
	seeded, err := op.Apply(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr, _ := seeded.Relation(relName)
	sr.SeedHash(h)
	if got := seeded.Key(); got != string(key[:]) {
		t.Fatalf("%s: seeded child key %x, previewed %x", op, got, key)
	}
}

// TestChildKeyMatchesApply is the differential test of the child-key
// previews, and of the fragments and estimates derived from them, against
// building the child: every ρ^att and π̄ candidate, including each failure
// case, on relations of arity 0, 1, 8, 9, 32 and 33 with 0, 1, 2, 32 and 33
// rows, in databases of 1, 2, 8 and 9 relations, with every incremental
// heuristic. The vocabulary is small enough that dropping a column
// collapses rows.
func TestChildKeyMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	checked := 0
	for _, nrels := range []int{1, 2, 8, 9} {
		for _, arity := range []int{0, 1, 8, 9, 32, 33} {
			for _, rows := range []int{0, 1, 2, 32, 33} {
				db := childKeyDB(t, rng, nrels, arity, rows, 2)
				rel, _ := db.Relation("R0")
				ests := childKeyEstimators(t, db)
				for _, op := range childKeyOps(rel) {
					checkChildKey(t, db, op, ests)
					checked++
				}
			}
		}
	}
	t.Logf("%d candidates checked", checked)
}

// FuzzChildKey checks the preview, the derived fragment and the edit
// estimates against Apply on generated databases: the fuzzer picks the
// shape, the vocabulary and the candidate.
func FuzzChildKey(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(8), uint8(1), uint8(2), uint16(0))
	f.Add(int64(2), uint8(2), uint8(9), uint8(32), uint8(2), uint16(7))
	f.Add(int64(3), uint8(8), uint8(1), uint8(2), uint8(1), uint16(3))
	f.Add(int64(4), uint8(9), uint8(33), uint8(33), uint8(3), uint16(11))
	f.Add(int64(5), uint8(1), uint8(0), uint8(1), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, nrels, arity, rows, vocab uint8, pick uint16) {
		rng := rand.New(rand.NewSource(seed))
		db := childKeyDB(t, rng, 1+int(nrels)%10, int(arity)%35, int(rows)%35, 1+int(vocab)%4)
		rel, _ := db.Relation("R0")
		ops := childKeyOps(rel)
		checkChildKey(t, db, ops[int(pick)%len(ops)], childKeyEstimators(t, db))
	})
}

// wideRow is a one-row relation of 32 attributes, the widest a preview
// answers on.
func wideRow(tb testing.TB) *relation.Database {
	tb.Helper()
	return childKeyDB(tb, rand.New(rand.NewSource(1)), 1, previewMaxAttrs, 1, 2)
}

// childKeyCase is one preview the allocation budget and the benchmark cover.
type childKeyCase struct {
	name string
	db   *relation.Database
	op   keyedOp
}

// childKeyCases are the exp1 successors of successorDB, a 32-attribute row,
// and the promoted 8×4 Flights relation (32 rows, 12 attributes).
func childKeyCases(tb testing.TB) []childKeyCase {
	wide, promoted := wideRow(tb), promotedPrices(tb)
	return []childKeyCase{
		{"exp1/rename", successorDB(), RenameAtt{Rel: "S", From: "A3", To: "B3"}},
		{"exp1/drop", successorDB(), Drop{Rel: "S", Attr: "A3"}},
		{"wide/rename", wide, RenameAtt{Rel: "R0", From: childKeyAttr(5), To: "Fresh"}},
		{"wide/drop", wide, Drop{Rel: "R0", Attr: childKeyAttr(5)}},
		{"promoted/rename", promoted, RenameAtt{Rel: "Prices", From: "AgentFee", To: "Fee"}},
		{"promoted/drop", promoted, dropRoute},
	}
}

// TestChildKeyAllocations pins the preview to stack scratch: keying a
// child allocates nothing, on a one-row 32-attribute relation and on the
// promoted 32-row Flights relation, whose drop must first find which rows
// collapse.
func TestChildKeyAllocations(t *testing.T) {
	for _, tc := range childKeyCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, ok := tc.op.ChildKey(tc.db); !ok {
				t.Fatal("preview declined")
			}
			got := testing.AllocsPerRun(100, func() { tc.op.ChildKey(tc.db) })
			if got != 0 {
				t.Errorf("ChildKey: %.0f allocations, budget 0", got)
			}
		})
	}
}

// BenchmarkChildKey compares keying a child by preview with building it
// and keying the result, the work a preview saves on every duplicate.
func BenchmarkChildKey(b *testing.B) {
	for _, tc := range childKeyCases(b) {
		b.Run(tc.name+"/preview", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := tc.op.ChildKey(tc.db); !ok {
					b.Fatal("preview declined")
				}
			}
		})
		b.Run(tc.name+"/apply+key", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next, err := tc.op.Apply(tc.db, nil)
				if err != nil {
					b.Fatal(err)
				}
				keySink = next.Key()
			}
		})
	}
}
