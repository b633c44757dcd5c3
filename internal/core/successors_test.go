package core

import (
	"strings"
	"testing"

	"tupelo/internal/critio"
	"tupelo/internal/datagen"
	"tupelo/internal/fira"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// successorLabels expands the source state of a problem and returns the
// operator labels, for direct assertions on candidate generation.
func successorLabels(t *testing.T, src, tgt *relation.Database, opts Options) []string {
	t.Helper()
	opts, err := opts.normalize()
	if err != nil {
		t.Fatal(err)
	}
	prob := newProblem(src, tgt, opts)
	moves, err := prob.Successors(prob.Start())
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(moves))
	for i, m := range moves {
		labels[i] = m.Op.String()
	}
	return labels
}

func hasLabel(labels []string, want string) bool {
	for _, l := range labels {
		if l == want {
			return true
		}
	}
	return false
}

// The value-evidence rule: renames are only proposed when the column's
// values overlap the target's values under the new name (§2.2's Rosetta
// Stone principle applied to candidate generation).
func TestRenameEvidencePruning(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A1", "A2"}, relation.Tuple{"a1", "a2"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("R", []string{"B1", "B2"}, relation.Tuple{"a1", "a2"}),
	)
	labels := successorLabels(t, src, tgt, DefaultOptions())
	if !hasLabel(labels, "rename_att[R,A1->B1]") || !hasLabel(labels, "rename_att[R,A2->B2]") {
		t.Fatalf("evidence-supported renames missing: %v", labels)
	}
	if hasLabel(labels, "rename_att[R,A1->B2]") || hasLabel(labels, "rename_att[R,A2->B1]") {
		t.Fatalf("cross renames should be pruned by value evidence: %v", labels)
	}
}

func TestRelationRenameEvidence(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("Emp", []string{"A"}, relation.Tuple{"ann"}),
		relation.MustNew("Dept", []string{"B"}, relation.Tuple{"sales"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("People", []string{"A"}, relation.Tuple{"ann"}),
		relation.MustNew("Units", []string{"B"}, relation.Tuple{"sales"}),
	)
	labels := successorLabels(t, src, tgt, DefaultOptions())
	if !hasLabel(labels, "rename_rel[Emp->People]") || !hasLabel(labels, "rename_rel[Dept->Units]") {
		t.Fatalf("supported relation renames missing: %v", labels)
	}
	if hasLabel(labels, "rename_rel[Emp->Units]") || hasLabel(labels, "rename_rel[Dept->People]") {
		t.Fatalf("cross relation renames should be pruned: %v", labels)
	}
}

// The "obviously inapplicable" rule from §2.3: when every target attribute
// name is present, no attribute renames are generated at all.
func TestRenameSkippedWhenAllAttrsPresent(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A", "B", "Extra"}, relation.Tuple{"1", "2", "3"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("R", []string{"A", "B"}, relation.Tuple{"9", "9"}),
	)
	labels := successorLabels(t, src, tgt, DefaultOptions())
	for _, l := range labels {
		if strings.HasPrefix(l, "rename_att") {
			t.Fatalf("attribute rename generated although all target attributes are present: %v", labels)
		}
	}
}

func TestPromoteCandidatesRequireTargetEvidence(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("Prices", []string{"Carrier", "Route", "Cost", "AgentFee"},
			relation.Tuple{"AirEast", "ATL29", "100", "15"},
		),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("Prices", []string{"Carrier", "ATL29"},
			relation.Tuple{"AirEast", "100"},
		),
	)
	labels := successorLabels(t, src, tgt, DefaultOptions())
	if !hasLabel(labels, "promote[Prices,Route,Cost]") {
		t.Fatalf("evidence-backed promote missing: %v", labels)
	}
	for _, l := range labels {
		if strings.HasPrefix(l, "promote[Prices,Cost") || strings.HasPrefix(l, "promote[Prices,AgentFee") {
			t.Fatalf("promote without attribute-name evidence generated: %v", labels)
		}
	}
}

func TestUnionCandidatesNeedSurplusRelations(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("P1", []string{"A"}, relation.Tuple{"x"}),
		relation.MustNew("P2", []string{"A"}, relation.Tuple{"y"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("All", []string{"A"}, relation.Tuple{"x"}, relation.Tuple{"y"}),
	)
	labels := successorLabels(t, src, tgt, DefaultOptions())
	if !hasLabel(labels, "union[P1,P2]") {
		t.Fatalf("union candidate missing: %v", labels)
	}
	// With as many relations as the target wants, no unions are proposed.
	sameCount := relation.MustDatabase(
		relation.MustNew("P1", []string{"A"}, relation.Tuple{"x"}),
	)
	labels = successorLabels(t, sameCount, tgt, DefaultOptions())
	for _, l := range labels {
		if strings.HasPrefix(l, "union") {
			t.Fatalf("union proposed without surplus relations: %v", labels)
		}
	}
}

// TestDiscoverUnionRoundTrip: partitioned source, single-relation target —
// discovery must find the ∪-based mapping.
func TestDiscoverUnionRoundTrip(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("P1", []string{"A", "B"}, relation.Tuple{"x", "1"}),
		relation.MustNew("P2", []string{"A", "B"}, relation.Tuple{"y", "2"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("All", []string{"A", "B"},
			relation.Tuple{"x", "1"},
			relation.Tuple{"y", "2"},
		),
	)
	res, err := Discover(src, tgt, Options{
		Algorithm: search.RBFS,
		Heuristic: heuristic.H3,
		Limits:    search.Limits{MaxStates: 50000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Expr, src, tgt, nil); err != nil {
		t.Fatalf("%v\n%s", err, res.Expr)
	}
	foundUnion := false
	for _, op := range res.Expr {
		if _, ok := op.(fira.Union); ok {
			foundUnion = true
		}
	}
	if !foundUnion {
		t.Fatalf("expected a union step:\n%s", res.Expr)
	}
}

// TestApplyEvidence: λ candidates are generated only toward target
// attributes and only when inputs are present.
func TestApplyCandidateFiltering(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A", "B"}, relation.Tuple{"1", "2"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("R", []string{"A", "B", "S"}, relation.Tuple{"1", "2", "3"}),
	)
	opts := DefaultOptions()
	opts.Registry = lambda.Builtins()
	opts.Correspondences = []lambda.Correspondence{
		{Func: "sum", In: []string{"A", "B"}, Out: "S"},                // applicable
		{Func: "sum", In: []string{"A", "Z"}, Out: "S"},                // missing input
		{Func: "sum", In: []string{"A", "B"}, Out: "Unwanted"},         // not a target attribute
		{Func: "sum", In: []string{"A", "B"}, Out: "S2", Rel: "Other"}, // wrong relation
	}
	// The last correspondence's Out is not in the target either, but the
	// relation filter already excludes it.
	labels := successorLabels(t, src, tgt, opts)
	if !hasLabel(labels, "apply[R,sum:A,B->S]") {
		t.Fatalf("applicable λ missing: %v", labels)
	}
	count := 0
	for _, l := range labels {
		if strings.HasPrefix(l, "apply") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("expected exactly 1 λ candidate, got %d: %v", count, labels)
	}
}

// TestExpansionAllocations bounds what one whole discovery allocates:
// MatchingPair(12) under IDA*/h1, a source relation wider than the
// attribute scan whose every expansion previews 12-attribute ρ^att and π̄
// children, estimates the new ones from their edits of the parent's
// fragment against an aggregate seeded for the expansion, and builds only
// those the search enters. The budget is the measured 815 allocations plus
// 10%. Estimating each new child from a fragment derived from its parent's,
// with an aggregate per state, took 1,698; building every new child at
// creation took 2,563; before the child-key previews and the per-run
// expansion scratch the same discovery took 3,475.
func TestExpansionAllocations(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(12)
	opts := Options{Algorithm: search.IDA, Heuristic: heuristic.H1}
	const budget = 896
	got := testing.AllocsPerRun(10, func() {
		if _, err := Discover(src, tgt, opts); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Discover(MatchingPair(12), IDA/h1): %.0f allocations, budget %d", got, budget)
	}
}

// builtChildren is the reference for an expansion's successors, made
// without previews or a state table: each candidate is applied to db by its
// own Apply and its child keyed by Database.Key. keys[i] is "" where ops[i]
// yields no successor: it fails, returns db unchanged, or its child keys to
// parentKey.
func builtChildren(t *testing.T, db *relation.Database, parentKey string, ops []fira.Op, reg *lambda.Registry) (keys []string) {
	t.Helper()
	keys = make([]string, len(ops))
	for i, op := range ops {
		next, err := op.Apply(db, reg)
		if err != nil || next == db {
			continue
		}
		if k := next.Key(); k != parentKey {
			keys[i] = k
		}
	}
	return keys
}

// TestPreviewedCandidates pins applyAll's three preview outcomes against
// children the operators build (builtChildren): a previewed child whose key
// is the parent's is a no-op, a previewed child the table already holds is
// that canonical state, and a new one is built and interned under its
// previewed key.
func TestPreviewedCandidates(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	ops := []fira.Op{
		fira.RenameAtt{Rel: "S", From: "A1", To: "A1"}, // identity rename
		fira.RenameAtt{Rel: "S", From: "A1", To: "B1"},
		fira.RenameAtt{Rel: "S", From: "A1", To: "B1"}, // duplicate of the previous
		fira.Drop{Rel: "S", Attr: "A2"},
	}
	opts, err := Options{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(src, tgt, opts)
	parent := p.Start().(*dbState)
	states, err := p.applyAll(parent, nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	if states[0] != nil {
		t.Error("identity rename yielded a successor")
	}
	if states[1] == nil || states[2] != states[1] {
		t.Errorf("duplicate renames yielded %p and %p, want one canonical state", states[1], states[2])
	}
	want := builtChildren(t, src, parent.key, ops, nil)
	for i, ns := range states {
		got := ""
		if ns != nil {
			got = ns.key
			if ns.database().Clone().Key() != ns.key {
				t.Errorf("%s: successor's database does not key to its state", ops[i])
			}
		}
		if got != want[i] {
			t.Errorf("%s: successor key %x, the built child's %x", ops[i], got, want[i])
		}
	}
}

// memberProblems builds the problems a race over (src, tgt) runs: one per
// default portfolio member, configured as DiscoverPortfolio configures it.
func memberProblems(tb testing.TB, src, tgt *relation.Database) []*mappingProblem {
	tb.Helper()
	var out []*mappingProblem
	for _, cfg := range DefaultPortfolio() {
		opts, err := memberOptions(Options{}, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, newProblem(src, tgt, opts))
	}
	return out
}

// BenchmarkNewProblem measures a served job's setup before its race: the
// BAMM pair parsed from text, as the server receives it, and the default
// portfolio's four member problems built over it.
func BenchmarkNewProblem(b *testing.B) {
	d := datagen.BAMM(2006)[0]
	srcText := critio.WriteString(&critio.Instance{DB: d.Fixed})
	tgtText := critio.WriteString(&critio.Instance{DB: d.Targets[0]})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := critio.ReadString(srcText)
		if err != nil {
			b.Fatal(err)
		}
		tgt, err := critio.ReadString(tgtText)
		if err != nil {
			b.Fatal(err)
		}
		memberProblems(b, src.DB, tgt.DB)
	}
}

// TestProblemsShareTargetIndex: every problem over one target, each member
// of a race among them, reads the target's one index.
func TestProblemsShareTargetIndex(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	ix := tgt.TargetIndex()
	for i, p := range memberProblems(t, src, tgt) {
		if p.tix != ix {
			t.Errorf("member %d holds index %p, the target's is %p", i, p.tix, ix)
		}
	}
}

// TestPromoteFeedsEmptyTargetCell: a target's empty cell is one of its
// values, so a column whose only value the target holds is an empty cell
// feeds a promotion, though the empty value is in no VALUE projection. A
// target without an empty cell gives the same column none.
func TestPromoteFeedsEmptyTargetCell(t *testing.T) {
	src := relation.MustDatabase(relation.MustNew("R", []string{"n", "v", "w"},
		relation.Tuple{"a", "", "q"}, relation.Tuple{"b", "z", "q"}))
	for _, tc := range []struct {
		cell string
		want []string
	}{
		{"", []string{"promote[R,n,v]"}},
		{"c", nil},
	} {
		tgt := relation.MustDatabase(relation.MustNew("T", []string{"a", "b"},
			relation.Tuple{"x", tc.cell}))
		opts, err := Options{}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, op := range newProblem(src, tgt, opts).promoteMoves(nil, newExpCtx(src)) {
			got = append(got, op.String())
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("target cell %q: promote candidates %v, want %v", tc.cell, got, tc.want)
		}
	}
}
