package relation

import (
	"slices"
	"sync"
	"testing"
)

// TestTargetIndexContents pins what the index derives from a target with an
// empty cell: the roles are the TNF projections, so the empty value holds
// none, while HoldsValue admits it as a cell value, as ValueSet does; the
// names are sorted; the rename evidence keeps every cell symbol.
func TestTargetIndexContents(t *testing.T) {
	db := MustDatabase(
		MustNew("T", []string{"b", "a"}, Tuple{"x", ""}, Tuple{"T", "y"}),
		MustNew("S", []string{"c"}),
	)
	ix := db.TargetIndex()
	for tok, want := range map[string]Role{
		"T": RoleRel | RoleVal, "S": RoleRel,
		"a": RoleAtt, "b": RoleAtt, "c": RoleAtt,
		"x": RoleVal, "y": RoleVal, "": 0,
	} {
		if got := ix.Roles()[Intern(tok)]; got != want {
			t.Errorf("roles of %q = %03b, want %03b", tok, got, want)
		}
	}
	if len(ix.Roles()) != 7 {
		t.Errorf("%d tokens hold roles, want 7", len(ix.Roles()))
	}
	if !ix.HoldsValue(emptySym) || !db.ValueSet()[""] {
		t.Error("the empty cell is not a target value")
	}
	if ix.HoldsValue(Intern("a")) {
		t.Error("an attribute name is a target value")
	}
	if got := ix.SortedRels(); !slices.Equal(got, []string{"S", "T"}) {
		t.Errorf("SortedRels = %v", got)
	}
	if got := ix.SortedAttrs(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("SortedAttrs = %v", got)
	}
	if a := ix.AttrValues("a"); len(a) != 2 || !a[emptySym] || !a[Intern("y")] {
		t.Errorf("AttrValues(a) = %v", a)
	}
	if c := ix.AttrValues("c"); c == nil || len(c) != 0 {
		t.Errorf("AttrValues(c) = %v, want empty and non-nil", c)
	}
	if ix.AttrValues("z") != nil || ix.RelValues("Z") != nil {
		t.Error("evidence for a name the target lacks")
	}
	if r := ix.RelValues("T"); len(r) != 4 {
		t.Errorf("RelValues(T) = %v, want 4 symbols", r)
	}
	if f := ix.Fragment(Intern("T")); f == nil || !f.Equal(db.rels[1].TNFFragment()) {
		t.Error("Fragment(T) is not T's fragment")
	}

	empty := MustDatabase(MustNew("T", []string{"a"}, Tuple{"x"}))
	if empty.TargetIndex().HoldsValue(emptySym) {
		t.Error("the empty value holds in a target with no empty cell")
	}
}

// TestTargetIndexConcurrent races the first TargetIndex calls on a fresh
// database, as a race's members do on their shared target: every caller
// must get the one published index.
func TestTargetIndexConcurrent(t *testing.T) {
	const goroutines = 16
	db := MustDatabase(
		MustNew("R", []string{"A", "B"}, Tuple{"1", "2"}),
		MustNew("S", []string{"B", "C"}, Tuple{"2", "3"}),
	)
	got := make([]*TargetIndex, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = db.TargetIndex()
		}()
	}
	wg.Wait()
	for g, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("goroutine %d got index %p, goroutine 0 %p", g, ix, got[0])
		}
	}
	if db.TargetIndex() != got[0] {
		t.Fatal("a later call built a second index")
	}
}
