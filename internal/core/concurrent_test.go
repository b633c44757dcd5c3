package core

import (
	"fmt"
	"sync"
	"testing"

	"tupelo/internal/datagen"
	"tupelo/internal/heuristic"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// TestConcurrentDiscoverSharedInputs pins the concurrency model of
// DESIGN.md §10: a run's state table and states are confined to its own
// goroutine, and what concurrent runs share — the input instances' relation
// memos, the intern table, the heuristic's target encoding — is safe to
// share. Eight goroutines run IDA, RBFS and A* discoveries at once over one
// shared Flights pair and two shared matching pairs, and every run must find
// the mapping, and examine and generate exactly the states, of a solo run
// over a separately generated copy of the same pair. Under -race (CI runs
// it so) this also checks that nothing a run writes is visible to another:
// matching12, wider than the attribute scan (attrScanMax), has every run
// preview ρ^att and π̄ children over the shared input relation's columns and
// lazily built attribute index, and reuse its own expansion scratch.
func TestConcurrentDiscoverSharedInputs(t *testing.T) {
	type pair struct{ src, tgt *relation.Database }
	gen := map[string]func() pair{
		"flights3x2": func() pair {
			src, tgt, err := datagen.FlightsScaled(3, 2)
			if err != nil {
				t.Fatal(err)
			}
			return pair{src, tgt}
		},
		"matching6": func() pair {
			src, tgt := datagen.MustMatchingPair(6)
			return pair{src, tgt}
		},
		"matching12": func() pair {
			src, tgt := datagen.MustMatchingPair(12)
			return pair{src, tgt}
		},
	}
	type config struct {
		instance string
		algo     search.Algorithm
		kind     heuristic.Kind // Unset: the default, cosine
	}
	var configs []config
	for _, name := range []string{"flights3x2", "matching6", "matching12"} {
		for _, algo := range []search.Algorithm{search.IDA, search.RBFS, search.AStar} {
			c := config{instance: name, algo: algo}
			if name == "matching12" && algo == search.IDA {
				// IDA* under cosine exhausts the default state budget on
				// matching12; under h1 it walks straight to the goal.
				c.kind = heuristic.H1
			}
			configs = append(configs, c)
		}
	}
	summary := func(res *Result) string {
		return fmt.Sprintf("%s examined=%d generated=%d", res.Expr, res.Stats.Examined, res.Stats.Generated)
	}
	want := make(map[config]string, len(configs))
	for _, c := range configs {
		p := gen[c.instance]()
		res, err := Discover(p.src, p.tgt, Options{Algorithm: c.algo, Heuristic: c.kind})
		if err != nil {
			t.Fatalf("solo %s/%s: %v", c.instance, c.algo, err)
		}
		want[c] = summary(res)
	}

	shared := map[string]pair{}
	for name, g := range gen {
		shared[name] = g()
	}
	const goroutines = 8
	got := make([][]string, goroutines)
	errs := make([][]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		got[g] = make([]string, len(configs))
		errs[g] = make([]error, len(configs))
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			// Each goroutine walks the configurations from its own offset,
			// so different algorithms overlap on the same shared pair.
			for k := range configs {
				i := (g + k) % len(configs)
				p := shared[configs[i].instance]
				res, err := Discover(p.src, p.tgt, Options{Algorithm: configs[i].algo, Heuristic: configs[i].kind})
				if err != nil {
					errs[g][i] = err
					continue
				}
				got[g][i] = summary(res)
			}
		}(g)
	}
	start.Done()
	done.Wait()
	for g := 0; g < goroutines; g++ {
		for i, c := range configs {
			if errs[g][i] != nil {
				t.Errorf("goroutine %d %s/%s: %v", g, c.instance, c.algo, errs[g][i])
				continue
			}
			if got[g][i] != want[c] {
				t.Errorf("goroutine %d %s/%s: concurrent run %q, solo run %q", g, c.instance, c.algo, got[g][i], want[c])
			}
		}
	}
}
