package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tupelo/internal/core"
	"tupelo/internal/datagen"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// restructureGolden is the golden record of the restructuring searches:
// states examined and the mapping text of every discovery in
// restructureGoldenRuns. It pins the search behaviour of the merge-heavy
// Fig. 1 restructuring and the λ tasks of Fig. 9, which the exp1 gate
// (renames and drops only) never exercises: a change to µ, to the TNF
// fragments or to successor bookkeeping that alters which states the
// search examines shows here.
const restructureGolden = "testdata/restructure_golden.txt"

// goldenTask is one discovery input of a restructuring golden.
type goldenTask struct {
	label    string
	src, tgt *relation.Database
	corrs    []lambda.Correspondence
	reg      *lambda.Registry
}

// flightsGoldenTasks returns the Fig. 1 Flights pairs at the given
// routes×carriers sizes.
func flightsGoldenTasks(t *testing.T, sizes [][2]int) []goldenTask {
	t.Helper()
	var tasks []goldenTask
	for _, size := range sizes {
		src, tgt, err := datagen.FlightsScaled(size[0], size[1])
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, goldenTask{label: fmt.Sprintf("flights %dx%d", size[0], size[1]), src: src, tgt: tgt})
	}
	return tasks
}

// goldenRuns renders one block per discovery: a header line with the
// task, configuration and states examined, then the mapping, one operator
// per line, indented.
func goldenRuns(t *testing.T, tasks []goldenTask, kinds []heuristic.Kind) string {
	t.Helper()
	var b strings.Builder
	for _, tk := range tasks {
		for _, algo := range BothAlgorithms() {
			for _, kind := range kinds {
				res, err := core.Discover(tk.src, tk.tgt, core.Options{
					Algorithm:       algo,
					Heuristic:       kind,
					Registry:        tk.reg,
					Correspondences: tk.corrs,
					Limits:          search.Limits{MaxStates: 50000},
				})
				if err != nil {
					t.Fatalf("%s %s/%s: %v", tk.label, algo, kind, err)
				}
				fmt.Fprintf(&b, "%s %s/%s states=%d\n", tk.label, algo, kind, res.Stats.Examined)
				for _, op := range res.Expr {
					fmt.Fprintf(&b, "  %s\n", op)
				}
			}
		}
	}
	return b.String()
}

// restructureGoldenRuns renders the restructure golden: Flights at five
// sizes and the Inventory λ tasks under h1, h3 and cosine.
func restructureGoldenRuns(t *testing.T) string {
	t.Helper()
	tasks := flightsGoldenTasks(t, [][2]int{{2, 2}, {3, 2}, {4, 3}, {6, 4}, {8, 4}})
	dom := datagen.Inventory()
	for n := 1; n <= 4; n++ {
		src, tgt, corrs, err := dom.Task(n)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, goldenTask{label: fmt.Sprintf("inventory n=%d", n), src: src, tgt: tgt, corrs: corrs, reg: dom.Registry})
	}
	return goldenRuns(t, tasks, []heuristic.Kind{heuristic.H1, heuristic.H3, heuristic.Cosine})
}

// compareGolden checks got against the golden file at path, reporting the
// first differing line.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}

// TestRestructureSearchGolden compares every restructuring discovery with
// the golden record: the same states examined and the same mapping text.
// The subtest is named for the one goroutine that expands each run's
// states.
func TestRestructureSearchGolden(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		compareGolden(t, restructureGolden, restructureGoldenRuns(t))
	})
}

// levenshteinGolden pins the hL searches: Flights 2×2, 3×2 and 4×3 under
// IDA and RBFS with the normalized Levenshtein heuristic, whose estimates
// come from the edit-distance kernel and which restructureGolden does not
// cover. A kernel that changes a single distance changes which states the
// search examines.
const levenshteinGolden = "testdata/restructure_golden_levenshtein.txt"

// TestRestructureSearchGoldenLevenshtein compares the hL discoveries with
// their golden record.
func TestRestructureSearchGoldenLevenshtein(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		tasks := flightsGoldenTasks(t, [][2]int{{2, 2}, {3, 2}, {4, 3}})
		compareGolden(t, levenshteinGolden, goldenRuns(t, tasks, []heuristic.Kind{heuristic.Levenshtein}))
	})
}
