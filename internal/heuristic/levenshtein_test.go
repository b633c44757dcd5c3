package heuristic

import (
	"math/rand"
	"testing"

	"tupelo/internal/datagen"
)

// editDistanceCases returns string pairs for the edit-distance kernels:
// random strings over a small alphabet that includes the bytes 0x00 and
// 0xff, at every length 0–300 and crossed over the lengths around block
// boundaries (63/64/65, 127/128/129, …); near-identical pairs a few edits
// apart; and one pair longer than the stack-resident block limit.
func editDistanceCases() [][2]string {
	rng := rand.New(rand.NewSource(1999))
	alphabet := []byte{'a', 'b', 'c', 0x00, 0xff}
	gen := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	// mutate applies k random substitutions, insertions and deletions.
	mutate := func(s string, k int) string {
		b := []byte(s)
		for ; k > 0; k-- {
			c := alphabet[rng.Intn(len(alphabet))]
			switch op := rng.Intn(3); {
			case op == 0 && len(b) > 0:
				b[rng.Intn(len(b))] = c
			case op == 1 && len(b) > 0:
				i := rng.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			default:
				i := rng.Intn(len(b) + 1)
				b = append(b[:i], append([]byte{c}, b[i:]...)...)
			}
		}
		return string(b)
	}
	edges := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 300}
	var cases [][2]string
	for _, m := range edges {
		for _, n := range edges {
			cases = append(cases, [2]string{gen(m), gen(n)})
		}
	}
	for n := 0; n <= 300; n++ {
		cases = append(cases, [2]string{gen(n), gen(rng.Intn(301))})
	}
	for _, n := range edges {
		s := gen(n)
		cases = append(cases, [2]string{s, s}, [2]string{s, mutate(s, 1)}, [2]string{s, mutate(s, 1+rng.Intn(4))})
	}
	long := gen(64*editPatternStackBlocks + 100)
	cases = append(cases, [2]string{long, mutate(long, 40)})
	return cases
}

// TestEditPatternMatchesDP holds the bit-parallel kernel to the reference
// dynamic program, with each string of every pair as the pattern in turn.
func TestEditPatternMatchesDP(t *testing.T) {
	for _, c := range editDistanceCases() {
		a, b := c[0], c[1]
		want := LevenshteinDistance(a, b)
		if got := newEditPattern(a).distance(b); got != want {
			t.Fatalf("pattern %q, text %q: distance %d, DP %d", a, b, got, want)
		}
		if got := newEditPattern(b).distance(a); got != want {
			t.Fatalf("pattern %q, text %q: distance %d, DP %d", b, a, got, want)
		}
	}
}

// fig1Strings returns the Fig. 1 canonical strings of Example 2's source
// (FlightsB) and target (FlightsA).
func fig1Strings() (src, tgt string) {
	return canonicalString(datagen.FlightsB()), canonicalString(datagen.FlightsA())
}

// TestEditPatternAllocations pins the pattern distance at zero allocations:
// hL runs it once per estimate, and the DP it replaced allocated two rows.
func TestEditPatternAllocations(t *testing.T) {
	src, tgt := fig1Strings()
	pat := newEditPattern(tgt)
	if got := testing.AllocsPerRun(100, func() { pat.distance(src) }); got != 0 {
		t.Fatalf("pattern distance allocates %.0f times per call, want 0", got)
	}
}

var distanceSink int

// BenchmarkEditPattern measures hL's kernel: the edit distance from the
// Fig. 1 source string to the target's pattern.
func BenchmarkEditPattern(b *testing.B) {
	src, tgt := fig1Strings()
	pat := newEditPattern(tgt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		distanceSink = pat.distance(src)
	}
}
