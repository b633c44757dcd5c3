package fira

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tupelo/internal/lambda"
	"tupelo/internal/relation"
)

// The three airline databases of the paper's Fig. 1.

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

func flightsC() *relation.Database {
	return relation.MustDatabase(
		relation.MustNew("AirEast", []string{"Route", "BaseCost", "TotalCost"},
			relation.Tuple{"ATL29", "100", "115"},
			relation.Tuple{"ORD17", "110", "125"},
		),
		relation.MustNew("JetWest", []string{"Route", "BaseCost", "TotalCost"},
			relation.Tuple{"ATL29", "200", "216"},
			relation.Tuple{"ORD17", "220", "236"},
		),
	)
}

// TestExample2FlightsBToA replays the paper's Example 2 step by step: the
// L expression mapping FlightsB to FlightsA.
func TestExample2FlightsBToA(t *testing.T) {
	expr := Expr{
		Promote{Rel: "Prices", NameAttr: "Route", ValueAttr: "Cost"}, // R1
		Drop{Rel: "Prices", Attr: "Route"},                           // R2 (1/2)
		Drop{Rel: "Prices", Attr: "Cost"},                            // R2 (2/2)
		Merge{Rel: "Prices", Attr: "Carrier"},                        // R3
		RenameAtt{Rel: "Prices", From: "AgentFee", To: "Fee"},        // R4 (1/2)
		RenameRel{From: "Prices", To: "Flights"},                     // R4 (2/2)
	}
	got, err := expr.Eval(flightsB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(flightsA()) {
		t.Fatalf("Example 2 pipeline output:\n%s\nwant:\n%s", got, flightsA())
	}
}

// TestFlightsBToC exercises the λ operator on the paper's complex mapping
// f3 (Cost + AgentFee → TotalCost) followed by partitioning on Carrier.
func TestFlightsBToC(t *testing.T) {
	expr := MustParse(`
		apply[Prices,sum:Cost,AgentFee->TotalCost]
		rename_att[Prices,Cost->BaseCost]
		drop[Prices,AgentFee]
		partition[Prices,Carrier]
		drop[AirEast,Carrier]
		drop[JetWest,Carrier]
	`)
	got, err := expr.Eval(flightsB(), lambda.Builtins())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(flightsC()) {
		t.Fatalf("B→C pipeline output:\n%s\nwant:\n%s", got, flightsC())
	}
}

// TestFlightsAToB maps in the metadata-demoting direction: attribute names
// (ATL29, ORD17) become Route data values via ↓ and →. Without relational
// selection (which the paper's L deliberately omits, §2.1) the result is a
// superset of FlightsB; containment is exactly TUPELO's goal test.
func TestFlightsAToB(t *testing.T) {
	expr := MustParse(`
		demote[Flights]
		deref[Flights,_ATT->Cost]
		rename_att[Flights,_ATT->Route]
		drop[Flights,_REL]
		rename_att[Flights,Fee->AgentFee]
		drop[Flights,ATL29]
		drop[Flights,ORD17]
		rename_rel[Flights->Prices]
	`)
	got, err := expr.Eval(flightsA(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(flightsB()) {
		t.Fatalf("A→B pipeline output does not contain FlightsB:\n%s", got)
	}
	if got.Equal(flightsB()) {
		t.Fatal("expected a strict superset (σ-free L cannot filter demoted metadata)")
	}
}

func TestRenameRelErrors(t *testing.T) {
	db := flightsB()
	for _, op := range []Op{
		RenameRel{From: "NoSuch", To: "X"},
		RenameRel{From: "Prices", To: "Prices"},
	} {
		if _, err := op.Apply(db, nil); err == nil {
			t.Fatalf("%s should fail", op)
		}
	}
	db2 := db.WithRelation(relation.MustNew("Other", []string{"A"}))
	if _, err := (RenameRel{From: "Prices", To: "Other"}).Apply(db2, nil); err == nil {
		t.Fatal("rename onto existing relation should fail")
	}
}

func TestRenameAttErrors(t *testing.T) {
	db := flightsB()
	for _, op := range []Op{
		RenameAtt{Rel: "NoSuch", From: "A", To: "B"},
		RenameAtt{Rel: "Prices", From: "NoSuch", To: "B"},
		RenameAtt{Rel: "Prices", From: "Cost", To: "Route"},
	} {
		if _, err := op.Apply(db, nil); err == nil {
			t.Fatalf("%s should fail", op)
		}
	}
}

func TestDropErrors(t *testing.T) {
	db := flightsB()
	for _, op := range []Op{
		Drop{Rel: "NoSuch", Attr: "A"},
		Drop{Rel: "Prices", Attr: "NoSuch"},
	} {
		if _, err := op.Apply(db, nil); err == nil {
			t.Fatalf("%s should fail", op)
		}
	}
}

func TestPromoteSemantics(t *testing.T) {
	db := flightsB()
	out, err := Promote{Rel: "Prices", NameAttr: "Route", ValueAttr: "Cost"}.Apply(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := out.Relation("Prices")
	if !r.HasAttr("ATL29") || !r.HasAttr("ORD17") {
		t.Fatalf("promoted columns missing: %v", r.Attrs())
	}
	// Each tuple carries its own cost under its route column, empty elsewhere.
	for i := 0; i < r.Len(); i++ {
		route, _ := r.Value(i, "Route")
		cost, _ := r.Value(i, "Cost")
		own, _ := r.Value(i, route)
		if own != cost {
			t.Fatalf("tuple %d: column %s = %q, want %q", i, route, own, cost)
		}
		other := "ORD17"
		if route == "ORD17" {
			other = "ATL29"
		}
		if v, _ := r.Value(i, other); v != "" {
			t.Fatalf("tuple %d: column %s = %q, want empty", i, other, v)
		}
	}
}

func TestPromoteErrors(t *testing.T) {
	db := flightsB()
	for _, op := range []Op{
		Promote{Rel: "NoSuch", NameAttr: "A", ValueAttr: "B"},
		Promote{Rel: "Prices", NameAttr: "NoSuch", ValueAttr: "Cost"},
		Promote{Rel: "Prices", NameAttr: "Route", ValueAttr: "NoSuch"},
		// Promoting Carrier collides with nothing, but promoting Route twice
		// collides with the columns the first promotion created.
	} {
		if _, err := op.Apply(db, nil); err == nil {
			t.Fatalf("%s should fail", op)
		}
	}
	// Name collision with an existing attribute.
	db2 := relation.MustDatabase(relation.MustNew("R", []string{"A", "B"},
		relation.Tuple{"B", "x"},
	))
	if _, err := (Promote{Rel: "R", NameAttr: "A", ValueAttr: "B"}).Apply(db2, nil); err == nil {
		t.Fatal("promotion colliding with existing attribute should fail")
	}
	// Empty value in the name column.
	db3 := relation.MustDatabase(relation.MustNew("R", []string{"A", "B"},
		relation.Tuple{"", "x"},
	))
	if _, err := (Promote{Rel: "R", NameAttr: "A", ValueAttr: "B"}).Apply(db3, nil); err == nil {
		t.Fatal("empty promoted name should fail")
	}
}

func TestDemoteSemantics(t *testing.T) {
	db := flightsA()
	out, err := Demote{Rel: "Flights"}.Apply(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := out.Relation("Flights")
	if r.Len() != 2*4 {
		t.Fatalf("demote row count = %d, want 8 (2 tuples × 4 attributes)", r.Len())
	}
	if !r.HasAttr(DemoteRelCol) || !r.HasAttr(DemoteAttCol) {
		t.Fatalf("demote columns missing: %v", r.Attrs())
	}
	atts, _ := r.ValuesOf(DemoteAttCol)
	if len(atts) != 4 {
		t.Fatalf("demoted attribute names = %v", atts)
	}
	rels, _ := r.ValuesOf(DemoteRelCol)
	if len(rels) != 1 || rels[0] != "Flights" {
		t.Fatalf("demoted relation names = %v", rels)
	}
	// Demoting twice must fail (reserved columns present).
	if _, err := (Demote{Rel: "Flights"}).Apply(out, nil); err == nil {
		t.Fatal("double demote should fail")
	}
	if _, err := (Demote{Rel: "NoSuch"}).Apply(db, nil); err == nil {
		t.Fatal("demote of missing relation should fail")
	}
}

func TestDerefErrors(t *testing.T) {
	db := flightsB()
	if _, err := (Deref{Rel: "NoSuch", PtrAttr: "A", NewAttr: "B"}).Apply(db, nil); err == nil {
		t.Fatal("missing relation should fail")
	}
	if _, err := (Deref{Rel: "Prices", PtrAttr: "NoSuch", NewAttr: "B"}).Apply(db, nil); err == nil {
		t.Fatal("missing pointer attribute should fail")
	}
	// Route values (ATL29...) are not attribute names of Prices.
	if _, err := (Deref{Rel: "Prices", PtrAttr: "Route", NewAttr: "B"}).Apply(db, nil); err == nil {
		t.Fatal("dangling pointer should fail")
	}
}

func TestPartitionSemantics(t *testing.T) {
	db := flightsB()
	out, err := Partition{Rel: "Prices", Attr: "Carrier"}.Apply(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, still := out.Relation("Prices"); still {
		t.Fatal("partition should consume the input relation")
	}
	for _, name := range []string{"AirEast", "JetWest"} {
		r, ok := out.Relation(name)
		if !ok {
			t.Fatalf("partition %s missing", name)
		}
		if r.Len() != 2 {
			t.Fatalf("partition %s has %d rows, want 2", name, r.Len())
		}
		vals, _ := r.ValuesOf("Carrier")
		if len(vals) != 1 || vals[0] != name {
			t.Fatalf("partition %s contains foreign tuples: %v", name, vals)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	db := flightsB()
	if _, err := (Partition{Rel: "NoSuch", Attr: "A"}).Apply(db, nil); err == nil {
		t.Fatal("missing relation should fail")
	}
	if _, err := (Partition{Rel: "Prices", Attr: "NoSuch"}).Apply(db, nil); err == nil {
		t.Fatal("missing attribute should fail")
	}
	// Clash with an existing relation name.
	db2 := db.WithRelation(relation.MustNew("AirEast", []string{"X"}))
	if _, err := (Partition{Rel: "Prices", Attr: "Carrier"}).Apply(db2, nil); err == nil {
		t.Fatal("partition clashing with existing relation should fail")
	}
	// Empty partition value.
	db3 := relation.MustDatabase(relation.MustNew("R", []string{"A"}, relation.Tuple{""}))
	if _, err := (Partition{Rel: "R", Attr: "A"}).Apply(db3, nil); err == nil {
		t.Fatal("empty partition value should fail")
	}
	// Empty relation.
	db4 := relation.MustDatabase(relation.MustNew("R", []string{"A"}))
	if _, err := (Partition{Rel: "R", Attr: "A"}).Apply(db4, nil); err == nil {
		t.Fatal("partitioning an empty relation should fail")
	}
}

func TestProductSemantics(t *testing.T) {
	db := relation.MustDatabase(
		relation.MustNew("L", []string{"A"}, relation.Tuple{"1"}, relation.Tuple{"2"}),
		relation.MustNew("R", []string{"B"}, relation.Tuple{"x"}, relation.Tuple{"y"}),
	)
	out, err := Product{Left: "L", Right: "R"}.Apply(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := out.Relation("L")
	if l.Len() != 4 || l.Arity() != 2 {
		t.Fatalf("product is %d×%d, want 4×2", l.Len(), l.Arity())
	}
	if _, ok := out.Relation("R"); !ok {
		t.Fatal("product should keep the right operand")
	}
	for _, op := range []Op{
		Product{Left: "L", Right: "L"},
		Product{Left: "NoSuch", Right: "R"},
		Product{Left: "L", Right: "NoSuch"},
	} {
		if _, err := op.Apply(db, nil); err == nil {
			t.Fatalf("%s should fail", op)
		}
	}
	clash := relation.MustDatabase(
		relation.MustNew("L", []string{"A"}),
		relation.MustNew("R", []string{"A"}),
	)
	if _, err := (Product{Left: "L", Right: "R"}).Apply(clash, nil); err == nil {
		t.Fatal("attribute clash should fail")
	}
}

func TestMergeSemantics(t *testing.T) {
	db := relation.MustDatabase(
		relation.MustNew("R", []string{"K", "A", "B"},
			relation.Tuple{"k1", "1", ""},
			relation.Tuple{"k1", "", "2"},
			relation.Tuple{"k1", "1", "3"}, // incompatible with the merged row on B
			relation.Tuple{"k2", "9", "9"},
		),
	)
	out, err := Merge{Rel: "R", Attr: "K"}.Apply(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := out.Relation("R")
	// k1 group: {1,""} and {"",2} merge to {1,2}; {1,3} stays separate.
	// k2 group: single row.
	if r.Len() != 3 {
		t.Fatalf("merge result has %d rows, want 3:\n%s", r.Len(), r)
	}
	want := relation.MustNew("R", []string{"K", "A", "B"},
		relation.Tuple{"k1", "1", "2"},
		relation.Tuple{"k1", "1", "3"},
		relation.Tuple{"k2", "9", "9"},
	)
	if !r.Equal(want) {
		t.Fatalf("merge result:\n%s\nwant:\n%s", r, want)
	}
	if _, err := (Merge{Rel: "R", Attr: "NoSuch"}).Apply(db, nil); err == nil {
		t.Fatal("merge on missing attribute should fail")
	}
	if _, err := (Merge{Rel: "NoSuch", Attr: "K"}).Apply(db, nil); err == nil {
		t.Fatal("merge on missing relation should fail")
	}
}

func TestApplyOperator(t *testing.T) {
	reg := lambda.Builtins()
	db := flightsB()
	out, err := Apply{Rel: "Prices", Func: "sum", In: []string{"Cost", "AgentFee"}, Out: "TotalCost"}.Apply(db, reg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := out.Relation("Prices")
	totals, _ := r.ValuesOf("TotalCost")
	for _, want := range []string{"115", "125", "216", "236"} {
		found := false
		for _, got := range totals {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("TotalCost missing %s: %v", want, totals)
		}
	}
	for _, tc := range []struct {
		name string
		op   Apply
		reg  *lambda.Registry
	}{
		{"missing relation", Apply{Rel: "NoSuch", Func: "sum", In: []string{"A", "B"}, Out: "C"}, reg},
		{"nil registry", Apply{Rel: "Prices", Func: "sum", In: []string{"Cost", "AgentFee"}, Out: "T"}, nil},
		{"unknown function", Apply{Rel: "Prices", Func: "nosuch", In: []string{"Cost"}, Out: "T"}, reg},
		{"arity mismatch", Apply{Rel: "Prices", Func: "sum", In: []string{"Cost"}, Out: "T"}, reg},
		{"missing attribute", Apply{Rel: "Prices", Func: "sum", In: []string{"Cost", "NoSuch"}, Out: "T"}, reg},
		{"existing output", Apply{Rel: "Prices", Func: "sum", In: []string{"Cost", "AgentFee"}, Out: "Cost"}, reg},
	} {
		if _, err := tc.op.Apply(db, tc.reg); err == nil {
			t.Fatalf("%s: should fail", tc.name)
		}
	}
}

// Per-tuple function failures follow §4's "identity otherwise": the tuple
// receives the absent value instead of aborting the mapping.
func TestApplyIdentityOnUndefinedTuples(t *testing.T) {
	reg := lambda.Builtins()
	db := flightsB()
	out, err := Apply{Rel: "Prices", Func: "sum", In: []string{"Carrier", "Cost"}, Out: "T"}.Apply(db, reg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := out.Relation("Prices")
	vals, _ := r.ValuesOf("T")
	if len(vals) != 1 || vals[0] != "" {
		t.Fatalf("sum over non-numeric Carrier should yield only absent values, got %v", vals)
	}
}

func TestEvalReportsStep(t *testing.T) {
	expr := Expr{
		Drop{Rel: "Prices", Attr: "Route"},
		Drop{Rel: "Prices", Attr: "Route"}, // fails: already dropped
	}
	_, err := expr.Eval(flightsB(), nil)
	if err == nil || !strings.Contains(err.Error(), "step 2") {
		t.Fatalf("Eval error should name the failing step, got %v", err)
	}
}

func TestEvalDoesNotMutateInput(t *testing.T) {
	db := flightsB()
	before := db.Fingerprint()
	expr := MustParse("promote[Prices,Route,Cost]\ndrop[Prices,Route]\nmerge[Prices,Carrier]")
	if _, err := expr.Eval(db, nil); err != nil {
		t.Fatal(err)
	}
	if db.Fingerprint() != before {
		t.Fatal("Eval mutated its input database")
	}
}

func TestThenIsNonDestructive(t *testing.T) {
	base := Expr{Drop{Rel: "R", Attr: "A"}}
	ext := base.Then(Drop{Rel: "R", Attr: "B"})
	if len(base) != 1 || len(ext) != 2 {
		t.Fatalf("Then mutated receiver: %d/%d", len(base), len(ext))
	}
}

func TestCompile(t *testing.T) {
	f := MustParse("rename_rel[Prices->Flights]").Compile(nil)
	out, err := f(flightsB())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Relation("Flights"); !ok {
		t.Fatal("compiled mapping did not run")
	}
}

func TestParseRoundTrip(t *testing.T) {
	ops := []Op{
		RenameRel{From: "Prices", To: "Flights"},
		RenameAtt{Rel: "Prices", From: "AgentFee", To: "Fee"},
		Drop{Rel: "Prices", Attr: "Route"},
		Promote{Rel: "Prices", NameAttr: "Route", ValueAttr: "Cost"},
		Demote{Rel: "R"},
		Deref{Rel: "R", PtrAttr: "Ptr", NewAttr: "New"},
		Partition{Rel: "R", Attr: "A"},
		Product{Left: "L", Right: "R"},
		Merge{Rel: "R", Attr: "Carrier"},
		Apply{Rel: "Prices", Func: "sum", In: []string{"Cost", "AgentFee"}, Out: "TotalCost"},
	}
	expr := Expr(ops)
	back, err := Parse(expr.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != expr.String() {
		t.Fatalf("round trip:\n%s\nvs\n%s", back, expr)
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	expr, err := Parse("# a comment\n\n  drop[R,A]  \n;\nmerge[R,K]")
	if err != nil {
		t.Fatal(err)
	}
	if len(expr) != 2 {
		t.Fatalf("parsed %d ops, want 2", len(expr))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense",
		"unknown[R]",
		"rename_rel[A]",
		"rename_rel[->B]",
		"rename_att[R,A]",
		"drop[R]",
		"drop[R,A,B]",
		"drop[R,]",
		"promote[R,A]",
		"demote[]",
		"demote[R,S]",
		"deref[R,A]",
		"partition[R]",
		"product[L]",
		"merge[R]",
		"apply[R,sum Cost->T]",
		"apply[R,sum:->T]",
		"apply[R,sum:A,->T]",
		"apply[R,sum:A,B]",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestPrettyNotation(t *testing.T) {
	expr := MustParse("promote[Prices,Route,Cost]\nmerge[Prices,Carrier]\nrename_rel[Prices->Flights]")
	p := expr.Pretty()
	for _, want := range []string{"↑^{Cost}_{Route}(Prices)", "µ_{Carrier}(Prices)", "ρ^rel_{Prices→Flights}"} {
		if !strings.Contains(p, want) {
			t.Fatalf("Pretty missing %q in %q", want, p)
		}
	}
}

// randomMergeInput is a relation over (K, A, B) with up to nine random
// tuples drawn from small domains that include the absent value, so merge
// groups are often, but not always, coalescible.
func randomMergeInput(rng *rand.Rand) (*relation.Relation, bool) {
	r := relation.MustNew("R", []string{"K", "A", "B"})
	for i := 0; i < 2+rng.Intn(8); i++ {
		row := relation.Tuple{
			"k" + string(rune('0'+rng.Intn(3))),
			pick(rng, []string{"", "1", "2"}),
			pick(rng, []string{"", "x", "y"}),
		}
		var err error
		r, err = r.Insert(row)
		if err != nil {
			return nil, false
		}
	}
	return r, true
}

// Merge must be idempotent: µ_A(µ_A(R)) = µ_A(R).
func TestPropertyMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r, ok := randomMergeInput(rand.New(rand.NewSource(seed)))
		if !ok {
			return false
		}
		db := relation.MustDatabase(r)
		once, err := Merge{Rel: "R", Attr: "K"}.Apply(db, nil)
		if err != nil {
			return false
		}
		twice, err := Merge{Rel: "R", Attr: "K"}.Apply(once, nil)
		if err != nil {
			return false
		}
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// µ's identity check is exact: Apply returns its input database exactly
// when the string-based reference (referenceMerge) equals the input, and
// otherwise returns a result equal to the reference. Every attribute is
// tried as the merge column, including the absent value as a group key.
func TestPropertyMergeIdentityExact(t *testing.T) {
	identities, merges := 0, 0
	f := func(seed int64) bool {
		r, ok := randomMergeInput(rand.New(rand.NewSource(seed)))
		if !ok {
			return false
		}
		db := relation.MustDatabase(r)
		for j, a := range r.Attrs() {
			o := Merge{Rel: "R", Attr: a}
			got, err := o.Apply(db, nil)
			if err != nil {
				return false
			}
			ref, err := referenceMerge(r, j)
			if err != nil {
				return false
			}
			if ref.Equal(r) {
				identities++
				if got != db {
					return false
				}
				continue
			}
			merges++
			if got == db || !got.Equal(relation.MustDatabase(ref)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if identities == 0 || merges == 0 {
		t.Fatalf("generator covered %d identity and %d coalescing merges; want both", identities, merges)
	}
}

// BenchmarkMergeIdentity measures a µ that coalesces nothing on a
// Flights-shaped relation: the 8-route × 4-carrier FlightsB-style Prices
// relation after ↑ promoted its routes, merged on Carrier. Tuples of one
// carrier still differ on Route, so no group coalesces — the shape of most
// merges the restructuring search proposes.
func BenchmarkMergeIdentity(b *testing.B) {
	db := promotedPrices(b)
	op := Merge{Rel: "Prices", Attr: "Carrier"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := op.Apply(db, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r, _ := out.Relation("Prices"); r.Len() != 32 {
			b.Fatalf("merge coalesced %d tuples", 32-r.Len())
		}
	}
}

// Demote multiplies cardinality by arity.
func TestPropertyDemoteCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAttr := 1 + rng.Intn(4)
		attrs := make([]string, nAttr)
		for i := range attrs {
			attrs[i] = "A" + string(rune('0'+i))
		}
		r := relation.MustNew("R", attrs)
		rows := 1 + rng.Intn(4)
		for i := 0; i < rows; i++ {
			row := make(relation.Tuple, nAttr)
			for j := range row {
				// Distinct values per row keep set semantics from collapsing.
				row[j] = "v" + string(rune('0'+i)) + string(rune('a'+j))
			}
			var err error
			r, err = r.Insert(row)
			if err != nil {
				return false
			}
		}
		out, err := Demote{Rel: "R"}.Apply(relation.MustDatabase(r), nil)
		if err != nil {
			return false
		}
		d, _ := out.Relation("R")
		return d.Len() == r.Len()*r.Arity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Parse(expr.String()) must reproduce the expression for arbitrary rename
// chains (the schema-matching fragment used by Experiments 1 and 2).
func TestPropertyParsePrintRenames(t *testing.T) {
	alpha := func(n uint8) string {
		return string(rune('A' + int(n)%26))
	}
	f := func(a, b, c uint8) bool {
		expr := Expr{
			RenameAtt{Rel: "R" + alpha(a), From: "x" + alpha(b), To: "y" + alpha(c)},
			RenameRel{From: "R" + alpha(a), To: "S" + alpha(b)},
		}
		back, err := Parse(expr.String())
		return err == nil && back.String() == expr.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func pick(rng *rand.Rand, choices []string) string {
	return choices[rng.Intn(len(choices))]
}
