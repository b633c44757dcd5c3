package nested

import (
	"strings"
	"testing"

	"tupelo/internal/search"
)

func TestParseAndPrint(t *testing.T) {
	doc := MustParse(`
<flights>
  <flight carrier="AirEast" route="ATL29">100</flight>
  <flight carrier="JetWest" route="ATL29">200</flight>
</flights>`)
	if doc.Tag != "flights" || len(doc.Children) != 2 {
		t.Fatalf("parse shape wrong: %s", doc)
	}
	c := doc.Children[0]
	if c.Attrs["carrier"] != "AirEast" || c.Text != "100" {
		t.Fatalf("child wrong: %+v", c)
	}
	out := doc.String()
	back, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(doc) {
		t.Fatalf("print/parse round trip:\n%s\nvs\n%s", out, back)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"<a><b></a></b>",
		"<a>",
		"</a>",
		"<a/><b/>",
		"<a attr=>x</a>",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Fatalf("ParseString(%q) should fail", bad)
		}
	}
}

func TestEqualUnordered(t *testing.T) {
	a := MustParse(`<r><x k="1"/><y k="2"/></r>`)
	b := MustParse(`<r><y k="2"/><x k="1"/></r>`)
	if !a.Equal(b) {
		t.Fatal("sibling order should not affect equality")
	}
	c := MustParse(`<r><x k="1"/></r>`)
	if a.Equal(c) {
		t.Fatal("different children should differ")
	}
}

func TestContains(t *testing.T) {
	have := MustParse(`<r extra="1"><x k="1">t</x><y/><z/></r>`)
	want := MustParse(`<r><x k="1"/></r>`)
	if !have.Contains(want) {
		t.Fatal("superset should contain subset")
	}
	wantText := MustParse(`<r><x>t</x></r>`)
	if !have.Contains(wantText) {
		t.Fatal("text match should hold")
	}
	miss := MustParse(`<r><x k="2"/></r>`)
	if have.Contains(miss) {
		t.Fatal("wrong attribute value should not be contained")
	}
	// Injective matching: two identical wanted children need two distinct
	// children in the state.
	dup := MustParse(`<r><x k="1"/><x k="1"/></r>`)
	if have.Contains(dup) {
		t.Fatal("duplicate children must embed injectively")
	}
}

func TestRenameTagAndAttr(t *testing.T) {
	doc := MustParse(`<r><item price="5"/><item price="7"/></r>`)
	out, err := XExpr{
		RenameTag{From: "item", To: "product"},
		RenameAttr{Tag: "product", From: "price", To: "cost"},
	}.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := MustParse(`<r><product cost="5"/><product cost="7"/></r>`)
	if !out.Equal(want) {
		t.Fatalf("got:\n%s", out)
	}
	if _, err := (RenameAttr{Tag: "r", From: "a", To: ""}).Apply(doc); err == nil {
		t.Fatal("empty attribute rename should fail")
	}
	clash := MustParse(`<r a="1" b="2"/>`)
	if _, err := (RenameAttr{Tag: "r", From: "a", To: "b"}).Apply(clash); err == nil {
		t.Fatal("rename onto existing attribute should fail")
	}
}

func TestAttrChildRoundTrip(t *testing.T) {
	doc := MustParse(`<flight carrier="AirEast"/>`)
	down, err := (AttrToChild{Tag: "flight", Attr: "carrier"}).Apply(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := MustParse(`<flight><carrier>AirEast</carrier></flight>`)
	if !down.Equal(want) {
		t.Fatalf("attr_to_child:\n%s", down)
	}
	up, err := (ChildToAttr{Tag: "flight", ChildTag: "carrier"}).Apply(down)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Equal(doc) {
		t.Fatalf("child_to_attr did not invert attr_to_child:\n%s", up)
	}
}

func TestChildToAttrConflicts(t *testing.T) {
	several := MustParse(`<f><c>x</c><c>y</c></f>`)
	if _, err := (ChildToAttr{Tag: "f", ChildTag: "c"}).Apply(several); err == nil {
		t.Fatal("multiple children should conflict")
	}
	deep := MustParse(`<f><c><d/></c></f>`)
	if _, err := (ChildToAttr{Tag: "f", ChildTag: "c"}).Apply(deep); err == nil {
		t.Fatal("non-leaf child should conflict")
	}
	clash := MustParse(`<f c="1"><c>x</c></f>`)
	if _, err := (ChildToAttr{Tag: "f", ChildTag: "c"}).Apply(clash); err == nil {
		t.Fatal("existing attribute should conflict")
	}
}

func TestHoist(t *testing.T) {
	doc := MustParse(`<r><wrap><a/><b/></wrap><c/></r>`)
	out, err := (Hoist{Tag: "r", ChildTag: "wrap"}).Apply(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := MustParse(`<r><a/><b/><c/></r>`)
	if !out.Equal(want) {
		t.Fatalf("hoist:\n%s", out)
	}
	attred := MustParse(`<r><wrap k="1"><a/></wrap></r>`)
	if _, err := (Hoist{Tag: "r", ChildTag: "wrap"}).Apply(attred); err == nil {
		t.Fatal("hoisting an attributed wrapper should fail")
	}
}

func TestTextToAttr(t *testing.T) {
	doc := MustParse(`<price>100</price>`)
	out, err := (TextToAttr{Tag: "price", Attr: "amount"}).Apply(doc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attrs["amount"] != "100" || out.Text != "" {
		t.Fatalf("text_to_attr:\n%s", out)
	}
	clash := MustParse(`<price amount="1">100</price>`)
	if _, err := (TextToAttr{Tag: "price", Attr: "amount"}).Apply(clash); err == nil {
		t.Fatal("existing attribute should conflict")
	}
}

func TestEvalReportsStep(t *testing.T) {
	doc := MustParse(`<r a="1" b="2"/>`)
	_, err := XExpr{
		RenameAttr{Tag: "r", From: "a", To: "x"},
		RenameAttr{Tag: "r", From: "b", To: "x"},
	}.Eval(doc)
	if err == nil || !strings.Contains(err.Error(), "step 2") {
		t.Fatalf("err = %v", err)
	}
}

// TestDiscoverRenames: the deep-web interface scenario transplanted to the
// nested model — pure tag/attribute matching.
func TestDiscoverRenames(t *testing.T) {
	src := MustParse(`<books><book title="The Hobbit" author="Tolkien"/></books>`)
	tgt := MustParse(`<library><item name="The Hobbit" writer="Tolkien"/></library>`)
	res, err := Discover(src, tgt, XOptions{Algorithm: search.RBFS})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Expr.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(tgt) {
		t.Fatalf("discovered LX expression does not reach the target:\n%s", res.Expr)
	}
	if len(res.Expr) != 4 { // two tag renames + two attribute renames
		t.Fatalf("expected 4 steps, got:\n%s", res.Expr)
	}
}

// TestDiscoverStructural: attributes must move between metadata and
// structure — the nested analogue of the Fig. 1 data–metadata mappings.
func TestDiscoverStructural(t *testing.T) {
	src := MustParse(`<flights>
		<flight carrier="AirEast" cost="100"/>
	</flights>`)
	tgt := MustParse(`<flights>
		<flight cost="100"><carrier>AirEast</carrier></flight>
	</flights>`)
	res, err := Discover(src, tgt, XOptions{Algorithm: search.RBFS})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Expr.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(tgt) {
		t.Fatalf("expression does not reach target:\n%s\n%s", res.Expr, got)
	}
	foundDemote := false
	for _, op := range res.Expr {
		if _, ok := op.(AttrToChild); ok {
			foundDemote = true
		}
	}
	if !foundDemote {
		t.Fatalf("expected an attr_to_child step:\n%s", res.Expr)
	}
}

// TestDiscoverHoistAndPromote: remove a wrapper level and promote a leaf.
func TestDiscoverHoistAndPromote(t *testing.T) {
	src := MustParse(`<catalog>
		<entry><data><title>Metropolis</title></data></entry>
	</catalog>`)
	tgt := MustParse(`<catalog>
		<entry title="Metropolis"/>
	</catalog>`)
	res, err := Discover(src, tgt, XOptions{Algorithm: search.RBFS})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Expr.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Contains(tgt) {
		t.Fatalf("expression does not reach target:\n%s\n%s", res.Expr, got)
	}
	t.Logf("discovered (%d states):\n%s", res.Stats.Examined, res.Expr)
}

func TestDiscoverIdentityAndErrors(t *testing.T) {
	doc := MustParse(`<r a="1"/>`)
	res, err := Discover(doc, doc.Clone(), XOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expr) != 0 {
		t.Fatalf("identity should be empty: %s", res.Expr)
	}
	if _, err := Discover(nil, doc, XOptions{}); err == nil {
		t.Fatal("nil source should fail")
	}
	if _, err := Discover(doc, nil, XOptions{}); err == nil {
		t.Fatal("nil target should fail")
	}
	// Unreachable target value.
	tgt := MustParse(`<r a="zzz"/>`)
	if _, err := Discover(doc, tgt, XOptions{Limits: search.Limits{MaxStates: 2000}}); err == nil {
		t.Fatal("unreachable target should fail")
	}
}

func TestSizeAndTokenSets(t *testing.T) {
	doc := MustParse(`<r a="1"><c b="2">t</c></r>`)
	if doc.Size() != 4 { // 2 nodes + 2 attributes
		t.Fatalf("Size = %d, want 4", doc.Size())
	}
	if !doc.Tags()["c"] || !doc.AttrNames()["b"] || !doc.Values()["t"] || !doc.Values()["1"] {
		t.Fatal("token sets wrong")
	}
}
