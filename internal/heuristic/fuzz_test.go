package heuristic

import "testing"

// FuzzEditDistance holds the bit-parallel edit distance to the reference
// dynamic program on arbitrary byte strings, each string of the pair taking
// the pattern's place in turn.
func FuzzEditDistance(f *testing.F) {
	for _, c := range editDistanceCases() {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 4096 || len(b) > 4096 {
			return // the quadratic reference would dominate the run
		}
		want := LevenshteinDistance(a, b)
		if got := newEditPattern(a).distance(b); got != want {
			t.Fatalf("pattern %q, text %q: distance %d, DP %d", a, b, got, want)
		}
		if got := newEditPattern(b).distance(a); got != want {
			t.Fatalf("pattern %q, text %q: distance %d, DP %d", b, a, got, want)
		}
	})
}
