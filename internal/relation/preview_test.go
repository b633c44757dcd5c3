package relation

import "testing"

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
