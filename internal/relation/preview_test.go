package relation

import (
	"fmt"
	"testing"
)

// TestSeedHashContract pins what SeedHash installs: a preview's value on a
// relation not yet hashed, nothing from the zero ChildHash, and nothing on
// a relation whose hash is already memoized. The previews' values
// themselves are checked against built children in internal/fira
// (TestChildKeyMatchesApply, FuzzChildKey).
func TestSeedHashContract(t *testing.T) {
	r := MustNew("R", []string{"A", "B", "C"},
		Tuple{"x", "1", "p"}, Tuple{"x", "2", "p"}, Tuple{"y", "1", "q"})
	h, ok := r.DroppedHash("B")
	if !ok {
		t.Fatal("DroppedHash declined on a 3×3 relation")
	}

	seeded, err := r.WithoutAttr("B")
	if err != nil {
		t.Fatal(err)
	}
	seeded.SeedHash(h)
	if got, want := seeded.Hash(), seeded.Clone().Hash(); got != want || got != h.Sum() {
		t.Fatalf("seeded hash %x, preview %x, recomputed %x", got, h.Sum(), want)
	}

	zero, err := r.WithoutAttr("B")
	if err != nil {
		t.Fatal(err)
	}
	zero.SeedHash(ChildHash{})
	if got := zero.Hash(); got != h.Sum() {
		t.Fatalf("after a zero seed, Hash = %x, want %x", got, h.Sum())
	}

	other, ok := r.RenamedHash("A", "Z")
	if !ok {
		t.Fatal("RenamedHash declined on a 3×3 relation")
	}
	zero.SeedHash(other) // already memoized: keeps its own hash
	if got := zero.Hash(); got != h.Sum() {
		t.Fatalf("a memoized hash was replaced: %x, want %x", got, h.Sum())
	}
}

// TestSeedFragmentContract pins what SeedFragment installs: a derived
// fragment on a relation whose fragment is not yet memoized, nothing from a
// nil fragment, and nothing on a relation whose fragment is already
// memoized. The derived fragments themselves are checked against built
// children in internal/fira (TestChildKeyMatchesApply, FuzzChildKey).
func TestSeedFragmentContract(t *testing.T) {
	r := MustNew("R", []string{"A", "B", "C"},
		Tuple{"x", "1", "p"}, Tuple{"y", "1", "p"}, Tuple{"z", "2", ""})
	h, ok := r.DroppedHash("B")
	if !ok || !h.Derivable() {
		t.Fatalf("DroppedHash(B) = %v, derivable %v: the drop collapses no rows", ok, h.Derivable())
	}
	derived := h.Fragment()

	seeded, err := r.WithoutAttr("B")
	if err != nil {
		t.Fatal(err)
	}
	seeded.SeedFragment(derived)
	if got, want := seeded.TNFFragment(), seeded.Clone().TNFFragment(); got != derived || !got.Equal(want) {
		t.Fatalf("seeded fragment %+v, derived %+v, recomputed %+v", got, derived, want)
	}

	unseeded, err := r.WithoutAttr("B")
	if err != nil {
		t.Fatal(err)
	}
	unseeded.SeedFragment(nil)
	computed := unseeded.TNFFragment()
	if computed == nil || !computed.Equal(derived) {
		t.Fatalf("after a nil seed, TNFFragment = %+v, want %+v", computed, derived)
	}
	unseeded.SeedFragment(derived) // already memoized: keeps its own fragment
	if got := unseeded.TNFFragment(); got != computed {
		t.Fatal("a memoized fragment was replaced")
	}

	// A drop that collapses rows, or leaves no attribute, derives nothing.
	if c, ok := r.DroppedHash("A"); !ok || c.Derivable() || c.Fragment() != nil {
		t.Fatalf("DroppedHash(A) collapses rows but derives a fragment (ok %v)", ok)
	}
	one := MustNew("R", []string{"A"}, Tuple{"x"})
	if c, ok := one.DroppedHash("A"); !ok || c.Derivable() || c.Fragment() != nil {
		t.Fatalf("dropping the only attribute derives a fragment (ok %v)", ok)
	}
}

// BenchmarkChildFragment compares deriving a previewed child's fragment
// from its parent's with what deriving saves: building the child relation
// and database as the operators' Apply does, then encoding its fragment.
// It covers a rename and a drop on exp1's 8-attribute row and on the
// promoted 8-route × 4-carrier Flights relation (32 rows, 12 attributes).
func BenchmarkChildFragment(b *testing.B) {
	attrs, row := make([]string, 8), make(Tuple, 8)
	for i := range attrs {
		attrs[i], row[i] = fmt.Sprintf("A%d", i+1), fmt.Sprintf("a%d", i+1)
	}
	exp1 := MustNew("S", attrs, row)
	promoted := promotedFlights(8, 4)
	cases := []struct {
		name string
		r    *Relation
		drop bool
		a, b string
	}{
		{"exp1/rename", exp1, false, "A3", "B3"},
		{"exp1/drop", exp1, true, "A3", ""},
		{"promoted/rename", promoted, false, "AgentFee", "Fee"},
		{"promoted/drop", promoted, true, "AgentFee", ""},
	}
	for _, tc := range cases {
		db := MustDatabase(tc.r)
		tc.r.TNFFragment() // an expanded state's fragment is memoized
		preview := func() (ChildHash, bool) {
			if tc.drop {
				return tc.r.DroppedHash(tc.a)
			}
			return tc.r.RenamedHash(tc.a, tc.b)
		}
		c, ok := preview()
		if !ok || !c.Derivable() {
			b.Fatalf("%s: preview declined or underivable", tc.name)
		}
		b.Run(tc.name+"/derived", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fragSink = c.Fragment()
			}
		})
		b.Run(tc.name+"/apply+fragment", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var child *Relation
				var err error
				if tc.drop {
					child, err = tc.r.WithoutAttr(tc.a)
				} else {
					child, err = tc.r.WithAttrRenamed(tc.a, tc.b)
				}
				if err != nil {
					b.Fatal(err)
				}
				db.WithRelation(child)
				fragSink = child.TNFFragment()
			}
		})
	}
}

var fragSink *Fragment
