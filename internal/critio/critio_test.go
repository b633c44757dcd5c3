package critio

import (
	"bufio"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tupelo/internal/lambda"
	"tupelo/internal/relation"
)

const flightsBText = `
# Flights database B (paper Fig. 1)
relation Prices
  Carrier  Route  Cost  AgentFee
  AirEast  ATL29  100   15
  JetWest  ATL29  200   16
  AirEast  ORD17  110   15
  JetWest  ORD17  220   16
`

func TestReadRelationBlock(t *testing.T) {
	inst, err := ReadString(flightsBText)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := inst.DB.Relation("Prices")
	if !ok {
		t.Fatal("Prices not parsed")
	}
	if r.Arity() != 4 || r.Len() != 4 {
		t.Fatalf("Prices is %d×%d, want 4×4", r.Len(), r.Arity())
	}
	v, _ := r.Value(0, "Carrier")
	if v != "AirEast" {
		t.Fatalf("first Carrier = %q", v)
	}
	if len(inst.Corrs) != 0 {
		t.Fatalf("unexpected correspondences: %v", inst.Corrs)
	}
}

func TestReadMultipleRelationsAndMaps(t *testing.T) {
	text := `
relation AirEast
  Route BaseCost
  ATL29 100

relation JetWest
  Route BaseCost
  ATL29 200

map sum(Cost, AgentFee) -> TotalCost
map concat(First, Last) -> Passenger on Pass
`
	inst, err := ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	if inst.DB.Len() != 2 {
		t.Fatalf("parsed %d relations, want 2", inst.DB.Len())
	}
	want := []lambda.Correspondence{
		{Func: "sum", In: []string{"Cost", "AgentFee"}, Out: "TotalCost"},
		{Func: "concat", In: []string{"First", "Last"}, Out: "Passenger", Rel: "Pass"},
	}
	if !reflect.DeepEqual(inst.Corrs, want) {
		t.Fatalf("correspondences = %+v, want %+v", inst.Corrs, want)
	}
}

func TestReadQuotedFields(t *testing.T) {
	text := `
relation R
  "Full Name"  City
  "John Smith" "New York"
  "Jane \"JJ\" Doe"  ""
`
	inst, err := ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := inst.DB.Relation("R")
	if !r.HasAttr("Full Name") {
		t.Fatalf("quoted attribute lost: %v", r.Attrs())
	}
	vals, _ := r.ValuesOf("Full Name")
	found := false
	for _, v := range vals {
		if v == `Jane "JJ" Doe` {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped quote lost: %v", vals)
	}
	cities, _ := r.ValuesOf("City")
	hasEmpty := false
	for _, v := range cities {
		if v == "" {
			hasEmpty = true
		}
	}
	if !hasEmpty {
		t.Fatalf("empty quoted field lost: %v", cities)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"data outside block", "AirEast ATL29"},
		{"relation without name", "relation "},
		{"relation without header", "relation R\nrelation S\n  A\n  x"},
		{"arity mismatch", "relation R\n  A B\n  x"},
		{"duplicate relation", "relation R\n  A\n  x\n\nrelation R\n  B\n  y"},
		{"unterminated quote", "relation R\n  \"A\n"},
		{"dangling escape", `relation R` + "\n" + `  "A\`},
		{"bad map no parens", "map sum -> T"},
		{"bad map empty input", "map sum(, B) -> T"},
		{"bad map no arrow", "map sum(A, B) T"},
		{"bad map empty out", "map sum(A) -> "},
		{"bad map empty rel", "map sum(A) -> T on "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadString(tc.text); err == nil {
				t.Fatalf("ReadString(%q) should fail", tc.text)
			}
		})
	}
}

// TestReadLongLines pins the scanner's line limit: a data line far beyond
// the scanner's initial buffer parses in full, as does one just under
// 1 MiB, and a line over 1 MiB fails with the scanner's too-long error.
func TestReadLongLines(t *testing.T) {
	for _, n := range []int{70 << 10, 1<<20 - 64} {
		long := strings.Repeat("v", n)
		inst, err := ReadString("relation R\n  A B\n  " + long + " x\n  y z\n")
		if err != nil {
			t.Fatalf("%d-byte field: %v", n, err)
		}
		want := relation.MustDatabase(relation.MustNew("R", []string{"A", "B"},
			relation.Tuple{long, "x"}, relation.Tuple{"y", "z"}))
		if !inst.DB.Equal(want) {
			t.Fatalf("%d-byte field: parsed relation differs", n)
		}
	}
	_, err := ReadString("relation R\n  A\n  " + strings.Repeat("v", 1<<20+1) + "\n")
	if want := "critio: " + bufio.ErrTooLong.Error(); err == nil || err.Error() != want {
		t.Fatalf("line over 1 MiB: err = %v, want %s", err, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	db := relation.MustDatabase(
		relation.MustNew("Prices", []string{"Carrier", "Route"},
			relation.Tuple{"AirEast", "ATL29"},
			relation.Tuple{"Jet West", ""},
		),
		relation.MustNew("Other", []string{"A"}, relation.Tuple{`say "hi"`}),
	)
	inst := &Instance{
		DB: db,
		Corrs: []lambda.Correspondence{
			{Func: "sum", In: []string{"Cost", "AgentFee"}, Out: "TotalCost"},
			{Func: "concat", In: []string{"First", "Last"}, Out: "Passenger", Rel: "Pass"},
		},
	}
	text := WriteString(inst)
	back, err := ReadString(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if !back.DB.Equal(db) {
		t.Fatalf("database round trip:\n%s\nvs\n%s", back.DB, db)
	}
	if !reflect.DeepEqual(back.Corrs, inst.Corrs) {
		t.Fatalf("correspondence round trip: %+v", back.Corrs)
	}
}

func TestWriteStableOrder(t *testing.T) {
	db := relation.MustDatabase(
		relation.MustNew("B", []string{"X"}),
		relation.MustNew("A", []string{"Y"}),
	)
	text := WriteString(&Instance{DB: db})
	if strings.Index(text, "relation A") > strings.Index(text, "relation B") {
		t.Fatalf("relations not in sorted order:\n%s", text)
	}
}

func randField(rng *rand.Rand) string {
	chars := []rune{'a', 'B', '3', ' ', '"', '\\', '#', '\t'}
	n := 1 + rng.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(chars[rng.Intn(len(chars))])
	}
	return b.String()
}

// Round trip must hold for adversarial field contents (spaces, quotes,
// backslashes, hash marks).
func TestPropertyRoundTripAdversarialValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := relation.MustNew("R", []string{"A", "B"})
		for i := 0; i < 1+rng.Intn(4); i++ {
			var err error
			r, err = r.Insert(relation.Tuple{randField(rng), randField(rng)})
			if err != nil {
				return false
			}
		}
		db := relation.MustDatabase(r)
		back, err := ReadString(WriteString(&Instance{DB: db}))
		if err != nil {
			return false
		}
		return back.DB.Equal(db)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
