package relation

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		relName string
		attrs   []string
		rows    []Tuple
		wantErr bool
	}{
		{"ok", "R", []string{"A", "B"}, []Tuple{{"1", "2"}}, false},
		{"empty relation name", "", []string{"A"}, nil, true},
		{"empty attribute", "R", []string{"A", ""}, nil, true},
		{"duplicate attribute", "R", []string{"A", "A"}, nil, true},
		{"arity mismatch", "R", []string{"A", "B"}, []Tuple{{"1"}}, true},
		{"no attributes", "R", nil, nil, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.relName, tc.attrs, tc.rows...)
			if (err != nil) != tc.wantErr {
				t.Fatalf("New(%q, %v, %v) error = %v, wantErr %v", tc.relName, tc.attrs, tc.rows, err, tc.wantErr)
			}
		})
	}
}

func TestSetSemantics(t *testing.T) {
	r := MustNew("R", []string{"A", "B"},
		Tuple{"1", "2"},
		Tuple{"1", "2"},
		Tuple{"3", "4"},
	)
	if r.Len() != 2 {
		t.Fatalf("duplicate rows not collapsed: Len = %d, want 2", r.Len())
	}
	r2, err := r.Insert(Tuple{"3", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("Insert of duplicate grew relation: Len = %d, want 2", r2.Len())
	}
}

func TestAttrAccessors(t *testing.T) {
	r := MustNew("R", []string{"A", "B", "C"}, Tuple{"1", "2", "3"})
	if !r.HasAttr("B") || r.HasAttr("Z") {
		t.Fatal("HasAttr wrong")
	}
	if got := r.AttrIndex("C"); got != 2 {
		t.Fatalf("AttrIndex(C) = %d, want 2", got)
	}
	if got := r.AttrIndex("Z"); got != -1 {
		t.Fatalf("AttrIndex(Z) = %d, want -1", got)
	}
	v, ok := r.Value(0, "B")
	if !ok || v != "2" {
		t.Fatalf("Value(0, B) = %q, %v", v, ok)
	}
	if _, ok := r.Value(0, "Z"); ok {
		t.Fatal("Value on missing attribute reported ok")
	}
	if r.Arity() != 3 {
		t.Fatalf("Arity = %d, want 3", r.Arity())
	}
}

func TestWithName(t *testing.T) {
	r := MustNew("R", []string{"A"}, Tuple{"1"})
	s, err := r.WithName("S")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "S" || r.Name() != "R" {
		t.Fatalf("WithName mutated receiver or failed: %q / %q", r.Name(), s.Name())
	}
	if _, err := r.WithName(""); err == nil {
		t.Fatal("WithName(\"\") should fail")
	}
}

func TestWithAttrRenamed(t *testing.T) {
	r := MustNew("R", []string{"A", "B"}, Tuple{"1", "2"})
	s, err := r.WithAttrRenamed("A", "X")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Attrs(), []string{"X", "B"}) {
		t.Fatalf("Attrs after rename = %v", s.Attrs())
	}
	if v, _ := s.Value(0, "X"); v != "1" {
		t.Fatalf("value under renamed attribute = %q, want 1", v)
	}
	if r.HasAttr("X") {
		t.Fatal("rename mutated receiver")
	}
	if _, err := r.WithAttrRenamed("Z", "Y"); err == nil {
		t.Fatal("rename of missing attribute should fail")
	}
	if _, err := r.WithAttrRenamed("A", "B"); err == nil {
		t.Fatal("rename onto existing attribute should fail")
	}
}

func TestWithColumn(t *testing.T) {
	r := MustNew("R", []string{"A"}, Tuple{"1"}, Tuple{"2"})
	s, err := r.WithColumn("B", []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.Len() != 2 {
		t.Fatalf("WithColumn produced %d×%d", s.Len(), s.Arity())
	}
	if _, err := r.WithColumn("B", []string{"x"}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := r.WithColumn("A", []string{"x", "y"}); err == nil {
		t.Fatal("existing attribute should fail")
	}
}

func TestWithoutAttrCollapses(t *testing.T) {
	r := MustNew("R", []string{"A", "B"},
		Tuple{"1", "x"},
		Tuple{"1", "y"},
	)
	s, err := r.WithoutAttr("B")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("projection did not collapse duplicates: Len = %d", s.Len())
	}
	if _, err := r.WithoutAttr("Z"); err == nil {
		t.Fatal("dropping missing attribute should fail")
	}
}

func TestProject(t *testing.T) {
	r := MustNew("R", []string{"A", "B", "C"},
		Tuple{"1", "2", "3"},
		Tuple{"1", "2", "4"},
	)
	p, err := r.Project([]string{"B", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Attrs(), []string{"B", "A"}) {
		t.Fatalf("projected attrs = %v", p.Attrs())
	}
	if p.Len() != 1 {
		t.Fatalf("projection should collapse to 1 row, got %d", p.Len())
	}
	if _, err := r.Project([]string{"Z"}); err == nil {
		t.Fatal("projecting missing attribute should fail")
	}
}

func TestValuesOf(t *testing.T) {
	r := MustNew("R", []string{"A"}, Tuple{"b"}, Tuple{"a"}, Tuple{"b"})
	vs, err := r.ValuesOf("A")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, []string{"a", "b"}) {
		t.Fatalf("ValuesOf = %v", vs)
	}
	if _, err := r.ValuesOf("Z"); err == nil {
		t.Fatal("ValuesOf missing attribute should fail")
	}
}

func TestRelationEqualOrderInsensitive(t *testing.T) {
	r := MustNew("R", []string{"A", "B"}, Tuple{"1", "2"}, Tuple{"3", "4"})
	s := MustNew("R", []string{"B", "A"}, Tuple{"4", "3"}, Tuple{"2", "1"})
	if !r.Equal(s) {
		t.Fatal("attribute/tuple order should not affect equality")
	}
	u := MustNew("S", []string{"A", "B"}, Tuple{"1", "2"}, Tuple{"3", "4"})
	if r.Equal(u) {
		t.Fatal("different names should not be equal")
	}
	w := MustNew("R", []string{"A", "B"}, Tuple{"1", "2"})
	if r.Equal(w) {
		t.Fatal("different cardinality should not be equal")
	}
}

func TestRelationContains(t *testing.T) {
	r := MustNew("Flights", []string{"Carrier", "Fee", "Extra"},
		Tuple{"AirEast", "15", "x"},
		Tuple{"JetWest", "16", "y"},
	)
	target := MustNew("Flights", []string{"Carrier", "Fee"},
		Tuple{"AirEast", "15"},
	)
	if !r.Contains(target) {
		t.Fatal("superset should contain projected subset")
	}
	miss := MustNew("Flights", []string{"Carrier", "Fee"},
		Tuple{"AirEast", "99"},
	)
	if r.Contains(miss) {
		t.Fatal("should not contain mismatched tuple")
	}
	wide := MustNew("Flights", []string{"Carrier", "Fee", "Gone"},
		Tuple{"AirEast", "15", "z"},
	)
	if r.Contains(wide) {
		t.Fatal("should not contain relation with missing attribute")
	}
}

func TestDatabaseBasics(t *testing.T) {
	r := MustNew("R", []string{"A"}, Tuple{"1"})
	s := MustNew("S", []string{"B"}, Tuple{"2"})
	db := MustDatabase(r, s)
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	if !reflect.DeepEqual(db.Names(), []string{"R", "S"}) {
		t.Fatalf("Names = %v", db.Names())
	}
	if _, ok := db.Relation("R"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := db.Relation("Z"); ok {
		t.Fatal("phantom relation")
	}
	if _, err := NewDatabase(r, MustNew("R", []string{"X"})); err == nil {
		t.Fatal("duplicate relation names should fail")
	}
	if _, err := NewDatabase(nil); err == nil {
		t.Fatal("nil relation should fail")
	}
}

func TestDatabaseCopyOnWrite(t *testing.T) {
	r := MustNew("R", []string{"A"}, Tuple{"1"})
	db := MustDatabase(r)
	db2 := db.WithRelation(MustNew("S", []string{"B"}))
	if db.Len() != 1 || db2.Len() != 2 {
		t.Fatal("WithRelation should not mutate receiver")
	}
	db3 := db2.WithoutRelation("R")
	if db2.Len() != 2 || db3.Len() != 1 {
		t.Fatal("WithoutRelation should not mutate receiver")
	}
	renamed, err := r.WithName("R2")
	if err != nil {
		t.Fatal(err)
	}
	db4, prev, err := db2.ReplaceRelation("R", renamed)
	if err != nil {
		t.Fatal(err)
	}
	if prev != r {
		t.Fatal("ReplaceRelation should return the displaced relation")
	}
	if _, ok := db4.Relation("R2"); !ok {
		t.Fatal("ReplaceRelation lost relation")
	}
	if _, _, err := db2.ReplaceRelation("nope", renamed); err == nil {
		t.Fatal("replacing missing relation should fail")
	}
	if _, _, err := db2.ReplaceRelation("R", MustNew("S", []string{"X"})); err == nil {
		t.Fatal("replace causing collision should fail")
	}
}

func TestDatabaseContains(t *testing.T) {
	src := MustDatabase(
		MustNew("Flights", []string{"Carrier", "Fee", "ATL29"},
			Tuple{"AirEast", "15", "100"},
		),
	)
	tgt := MustDatabase(
		MustNew("Flights", []string{"Carrier", "ATL29"},
			Tuple{"AirEast", "100"},
		),
	)
	if !src.Contains(tgt) {
		t.Fatal("containment failed")
	}
	if tgt.Contains(src) {
		t.Fatal("reverse containment should fail (missing Fee)")
	}
}

func TestNameAttrValueSets(t *testing.T) {
	db := MustDatabase(
		MustNew("R", []string{"A", "B"}, Tuple{"1", "2"}),
		MustNew("S", []string{"B", "C"}, Tuple{"2", "3"}),
	)
	ix := db.TargetIndex()
	for _, r := range []string{"R", "S"} {
		if !ix.Has(Intern(r), RoleRel) {
			t.Fatalf("target index misses relation %s", r)
		}
	}
	for _, a := range []string{"A", "B", "C"} {
		if !ix.Has(Intern(a), RoleAtt) {
			t.Fatalf("target index misses attribute %s", a)
		}
	}
	for _, v := range []string{"1", "2", "3"} {
		if !ix.Has(Intern(v), RoleVal) {
			t.Fatalf("target index misses value %s", v)
		}
	}
	vals := db.ValueSet()
	for _, v := range []string{"1", "2", "3"} {
		if !vals[v] {
			t.Fatalf("ValueSet missing %s", v)
		}
	}
	if db.Size() != 4 {
		t.Fatalf("Size = %d, want 4", db.Size())
	}
}

func TestPrinting(t *testing.T) {
	r := MustNew("Flights", []string{"Carrier", "Fee"},
		Tuple{"AirEast", "15"},
	)
	s := r.String()
	for _, want := range []string{"Flights:", "Carrier", "Fee", "AirEast", "15"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q in:\n%s", want, s)
		}
	}
	db := MustDatabase(r, MustNew("Other", []string{"X"}))
	if !strings.Contains(db.String(), "Other:") {
		t.Fatal("database String() missing second relation")
	}
}

// randomRelation builds a small pseudo-random relation from a rand source.
func randomRelation(rng *rand.Rand, name string) *Relation {
	return randomRelationRows(rng, name, 4)
}

// randomRelationRows is randomRelation with up to maxRows insertions.
func randomRelationRows(rng *rand.Rand, name string, maxRows int) *Relation {
	nAttr := 1 + rng.Intn(4)
	attrs := make([]string, nAttr)
	for i := range attrs {
		attrs[i] = string(rune('A'+i)) + string(rune('a'+rng.Intn(26)))
	}
	r := MustNew(name, attrs)
	nRows := rng.Intn(maxRows + 1)
	for i := 0; i < nRows; i++ {
		row := make(Tuple, nAttr)
		for j := range row {
			row[j] = string(rune('0' + rng.Intn(10)))
		}
		var err error
		r, err = r.Insert(row)
		if err != nil {
			panic(err)
		}
	}
	return r
}

func randomDatabase(rng *rand.Rand) *Database {
	n := 1 + rng.Intn(3)
	rels := make([]*Relation, n)
	for i := range rels {
		rels[i] = randomRelation(rng, "R"+string(rune('0'+i)))
	}
	return MustDatabase(rels...)
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDatabase(rand.New(rand.NewSource(seed)))
		return db.Equal(db.Clone()) && db.Fingerprint() == db.Clone().Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyContainsReflexive(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDatabase(rand.New(rand.NewSource(seed)))
		return db.Contains(db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFingerprintDistinguishes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDatabase(rng)
		// Mutate: add a fresh relation; fingerprints must differ.
		db2 := db.WithRelation(MustNew("Zmut", []string{"Q"}, Tuple{"qq"}))
		return db.Fingerprint() != db2.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEqualIffFingerprint(t *testing.T) {
	f := func(a, b int64) bool {
		dbA := randomDatabase(rand.New(rand.NewSource(a)))
		dbB := randomDatabase(rand.New(rand.NewSource(b)))
		return dbA.Equal(dbB) == (dbA.Fingerprint() == dbB.Fingerprint())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRenameRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R")
		attrs := r.Attrs()
		if len(attrs) == 0 {
			return true
		}
		a := attrs[rng.Intn(len(attrs))]
		renamed, err := r.WithAttrRenamed(a, "ZZfresh")
		if err != nil {
			return false
		}
		back, err := renamed.WithAttrRenamed("ZZfresh", a)
		if err != nil {
			return false
		}
		return back.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyProjectIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R")
		p, err := r.Project(r.Attrs())
		if err != nil {
			return false
		}
		return p.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
