package core

import (
	"sync"
	"testing"

	"tupelo/internal/relation"
)

// TestLazyMemoizationRaceFree drives the lazy canonical-form memoization
// from many goroutines at once, the way concurrent discoveries over one
// shared instance do (portfolio members, server jobs): states built with
// WithRelation share every untouched *Relation, and the first goroutine to
// key its state races the others to fill each shared relation's memo. Run
// under -race (CI does), this pins that the sync.Once publication is sound.
func TestLazyMemoizationRaceFree(t *testing.T) {
	mk := func() *relation.Database {
		return relation.MustDatabase(
			relation.MustNew("R", []string{"A", "B"},
				relation.Tuple{"1", "2"}, relation.Tuple{"3", "4"}),
			relation.MustNew("S", []string{"X", "Y"},
				relation.Tuple{"x", "y"}),
			relation.MustNew("T", []string{"Q"},
				relation.Tuple{"q"}),
		)
	}
	for trial := 0; trial < 50; trial++ {
		base := mk()
		// Successor-like states sharing base's relations copy-on-write, each
		// replacing a different relation — exactly the sharing pattern
		// expansions produce.
		states := []*relation.Database{
			base,
			base.WithRelation(relation.MustNew("R", []string{"A"}, relation.Tuple{"1"})),
			base.WithRelation(relation.MustNew("S", []string{"X"}, relation.Tuple{"x"})),
			base.WithRelation(relation.MustNew("U", []string{"Z"})),
		}
		var wg sync.WaitGroup
		keys := make([]string, 8*len(states))
		for w := 0; w < 8; w++ {
			for i, db := range states {
				wg.Add(1)
				go func(slot int, db *relation.Database) {
					defer wg.Done()
					// Key, Fingerprint, and Equal all race to canonicalize
					// the shared relations.
					keys[slot] = db.Key()
					_ = db.Fingerprint()
					_ = db.Equal(base)
				}(w*len(states)+i, db)
			}
		}
		wg.Wait()
		for w := 1; w < 8; w++ {
			for i := range states {
				if keys[w*len(states)+i] != keys[i] {
					t.Fatalf("trial %d: goroutines disagree on key of state %d", trial, i)
				}
			}
		}
	}
}

// TestSuccessorKeysMatchRecomputed expands the flights start state and
// checks every generated state's key, computed from relation hashes shared
// copy-on-write with the parent, against a recomputation on a clone that
// shares nothing.
func TestSuccessorKeysMatchRecomputed(t *testing.T) {
	p := newProblem(flightsB(), flightsA(), Options{})
	moves, err := p.Successors(p.Start())
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no successor moves at all")
	}
	for _, m := range moves {
		ds := m.To.(*dbState)
		if got, want := ds.key, ds.database().Clone().Key(); got != want {
			t.Fatalf("move %s: memoized key differs from recomputed key", m.Op)
		}
	}
}
