package core

import (
	"errors"
	"fmt"
	"testing"

	"tupelo/internal/fira"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

func flightsA() *relation.Database {
	return relation.MustDatabase(
		relation.MustNew("Flights", []string{"Carrier", "Fee", "ATL29", "ORD17"},
			relation.Tuple{"AirEast", "15", "100", "110"},
			relation.Tuple{"JetWest", "16", "200", "220"},
		),
	)
}

func flightsB() *relation.Database {
	return relation.MustDatabase(
		relation.MustNew("Prices", []string{"Carrier", "Route", "Cost", "AgentFee"},
			relation.Tuple{"AirEast", "ATL29", "100", "15"},
			relation.Tuple{"JetWest", "ATL29", "200", "16"},
			relation.Tuple{"AirEast", "ORD17", "110", "15"},
			relation.Tuple{"JetWest", "ORD17", "220", "16"},
		),
	)
}

func TestDiscoverIdentity(t *testing.T) {
	db := flightsA()
	res, err := Discover(db, db.Clone(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expr) != 0 {
		t.Fatalf("identity mapping should be empty, got %s", res.Expr)
	}
	if res.Stats.Examined != 1 {
		t.Fatalf("identity should examine exactly the start state, got %d", res.Stats.Examined)
	}
}

func TestDiscoverSchemaMatching(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A1", "A2", "A3"},
			relation.Tuple{"a1", "a2", "a3"},
		),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("R", []string{"B1", "B2", "B3"},
			relation.Tuple{"a1", "a2", "a3"},
		),
	)
	for _, algo := range []search.Algorithm{search.IDA, search.RBFS} {
		for _, h := range []heuristic.Kind{heuristic.H1, heuristic.Cosine} {
			name := fmt.Sprintf("%s/%s", algo, h)
			t.Run(name, func(t *testing.T) {
				res, err := Discover(src, tgt, Options{Algorithm: algo, Heuristic: h})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Expr) != 3 {
					t.Fatalf("expected 3 renames, got %d: %s", len(res.Expr), res.Expr)
				}
				if err := Verify(res.Expr, src, tgt, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestDiscoverRelationAndAttributeRename(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("Emp", []string{"nm"}, relation.Tuple{"ann"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("Employee", []string{"Name"}, relation.Tuple{"ann"}),
	)
	res, err := Discover(src, tgt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expr) != 2 {
		t.Fatalf("expected 2 steps, got %s", res.Expr)
	}
	if err := Verify(res.Expr, src, tgt, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDiscoverFlightsBToA is the paper's running example (Fig. 1): discovery
// of the full data-metadata restructuring of Example 2, involving ↑, π̄, µ,
// ρ^att and ρ^rel.
func TestDiscoverFlightsBToA(t *testing.T) {
	src, tgt := flightsB(), flightsA()
	res, err := Discover(src, tgt, Options{
		Algorithm: search.RBFS,
		Heuristic: heuristic.H3,
		Limits:    search.Limits{MaxStates: 200000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Expr, src, tgt, nil); err != nil {
		t.Fatalf("discovered expression does not map B to A: %v\n%s", err, res.Expr)
	}
	// The canonical mapping (Example 2) has 6 steps; allow slack for
	// alternate operator orders but catch degenerate wandering.
	if len(res.Expr) < 4 || len(res.Expr) > 10 {
		t.Fatalf("suspicious expression length %d:\n%s", len(res.Expr), res.Expr)
	}
	t.Logf("B→A (%d states): \n%s", res.Stats.Examined, res.Expr)
}

// TestDiscoverComplexSemanticMapping exercises λ discovery (§4): the target
// wants TotalCost = sum(Cost, AgentFee).
func TestDiscoverComplexSemanticMapping(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("Prices", []string{"CID", "Route", "Cost", "AgentFee"},
			relation.Tuple{"123", "ATL29", "100", "15"},
			relation.Tuple{"456", "ATL29", "200", "16"},
		),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("Prices", []string{"CID", "Route", "TotalCost"},
			relation.Tuple{"123", "ATL29", "115"},
			relation.Tuple{"456", "ATL29", "216"},
		),
	)
	corr := lambda.Correspondence{Func: "sum", In: []string{"Cost", "AgentFee"}, Out: "TotalCost"}
	opts := DefaultOptions()
	opts.Correspondences = []lambda.Correspondence{corr}
	res, err := Discover(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expr) != 1 {
		t.Fatalf("expected a single λ step, got %s", res.Expr)
	}
	if _, ok := res.Expr[0].(fira.Apply); !ok {
		t.Fatalf("expected λ, got %T", res.Expr[0])
	}
	if err := Verify(res.Expr, src, tgt, lambda.Builtins()); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverMixedSemanticAndStructural(t *testing.T) {
	// Requires a λ application *and* renames.
	src := relation.MustDatabase(
		relation.MustNew("Pass", []string{"Last", "First"},
			relation.Tuple{"Smith", "John"},
			relation.Tuple{"Doe", "Jane"},
		),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("Manifest", []string{"Passenger"},
			relation.Tuple{"John Smith"},
			relation.Tuple{"Jane Doe"},
		),
	)
	opts := DefaultOptions()
	opts.Correspondences = []lambda.Correspondence{
		{Func: "concat", In: []string{"First", "Last"}, Out: "Passenger"},
	}
	res, err := Discover(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Expr, src, tgt, lambda.Builtins()); err != nil {
		t.Fatalf("%v\n%s", err, res.Expr)
	}
}

func TestDiscoverLimitExceeded(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A1", "A2", "A3", "A4"},
			relation.Tuple{"a1", "a2", "a3", "a4"},
		),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("R", []string{"B1", "B2", "B3", "B4"},
			relation.Tuple{"a1", "a2", "a3", "a4"},
		),
	)
	opts := Options{Algorithm: search.IDA, Heuristic: heuristic.H0,
		Limits: search.Limits{MaxStates: 3}}
	_, err := Discover(src, tgt, opts)
	if !errors.Is(err, search.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestDiscoverUnreachableTarget(t *testing.T) {
	// The target value "zz" exists nowhere in the source and no λ produces
	// it, so no sequence of L operators can reach the target.
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A"}, relation.Tuple{"a"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("R", []string{"A"}, relation.Tuple{"zz"}),
	)
	_, err := Discover(src, tgt, Options{
		Algorithm: search.RBFS,
		Heuristic: heuristic.H1,
		Limits:    search.Limits{MaxStates: 5000},
	})
	if err == nil {
		t.Fatal("unreachable target should fail")
	}
}

func TestDiscoverOptionValidation(t *testing.T) {
	db := flightsA()
	if _, err := Discover(nil, db, DefaultOptions()); err == nil {
		t.Fatal("nil source should fail")
	}
	if _, err := Discover(db, nil, DefaultOptions()); err == nil {
		t.Fatal("nil target should fail")
	}
	opts := DefaultOptions()
	opts.K = -1
	if _, err := Discover(db, db, opts); err == nil {
		t.Fatal("negative K should fail")
	}
	opts = DefaultOptions()
	opts.Correspondences = []lambda.Correspondence{{Func: "nosuch", In: []string{"A"}, Out: "B"}}
	if _, err := Discover(db, db, opts); err == nil {
		t.Fatal("invalid correspondence should fail")
	}
}

func TestResultApply(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("Emp", []string{"nm"}, relation.Tuple{"ann"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("Emp", []string{"Name"}, relation.Tuple{"ann"}),
	)
	res, err := Discover(src, tgt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Apply the discovered mapping to a *larger* instance of the source
	// schema — the whole point of mapping discovery (§2.3).
	big := relation.MustDatabase(
		relation.MustNew("Emp", []string{"nm"},
			relation.Tuple{"ann"}, relation.Tuple{"bob"}, relation.Tuple{"cat"},
		),
	)
	out, err := res.Apply(big, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := out.Relation("Emp")
	if !ok || !r.HasAttr("Name") || r.Len() != 3 {
		t.Fatalf("applied mapping produced:\n%s", out)
	}
}

func TestSimplifyCollapsesRenameChains(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A"}, relation.Tuple{"a"}),
	)
	expr := fira.MustParse("rename_att[R,A->Tmp]\nrename_att[R,Tmp->B]")
	simp := Simplify(expr, src, nil)
	if len(simp) != 1 {
		t.Fatalf("expected 1 step after simplification, got %s", simp)
	}
	want, _ := expr.Eval(src, nil)
	got, err := simp.Eval(src, nil)
	if err != nil || !got.Equal(want) {
		t.Fatalf("simplification changed semantics: %v", err)
	}
}

func TestSimplifyDropsRedundantSteps(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A", "B"}, relation.Tuple{"a", "b"}),
	)
	// The middle pair renames B away and back; both steps are redundant.
	expr := fira.MustParse("rename_att[R,A->X]\nrename_att[R,B->T]\nrename_att[R,T->B]")
	simp := Simplify(expr, src, nil)
	if len(simp) != 1 {
		t.Fatalf("expected 1 step, got %d: %s", len(simp), simp)
	}
}

func TestSimplifyKeepsInvalidExpressionUntouched(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A"}, relation.Tuple{"a"}),
	)
	expr := fira.MustParse("drop[NoSuch,A]")
	simp := Simplify(expr, src, nil)
	if len(simp) != 1 {
		t.Fatal("unevaluable expression should be returned unchanged")
	}
}

func TestVerifyFailure(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A"}, relation.Tuple{"a"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("S", []string{"B"}, relation.Tuple{"zz"}),
	)
	if err := Verify(fira.Expr{}, src, tgt, nil); !errors.Is(err, ErrNotContained) {
		t.Fatalf("err = %v, want ErrNotContained", err)
	}
	if err := Verify(fira.MustParse("drop[NoSuch,A]"), src, tgt, nil); err == nil {
		t.Fatal("unevaluable expression should fail verification")
	}
}

// TestDiscoverAcrossAlgorithmsAndHeuristics runs a small matching task under
// every algorithm × heuristic combination; each discovered expression must
// verify. (This is the paper's experimental grid in miniature.)
func TestDiscoverAcrossAlgorithmsAndHeuristics(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"A1", "A2"}, relation.Tuple{"a1", "a2"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("R", []string{"B1", "B2"}, relation.Tuple{"a1", "a2"}),
	)
	for _, algo := range []search.Algorithm{search.IDA, search.RBFS, search.AStar, search.Greedy} {
		for _, h := range heuristic.Kinds() {
			name := fmt.Sprintf("%s/%s", algo, h)
			t.Run(name, func(t *testing.T) {
				res, err := Discover(src, tgt, Options{
					Algorithm: algo,
					Heuristic: h,
					Limits:    search.Limits{MaxStates: 100000},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(res.Expr, src, tgt, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
