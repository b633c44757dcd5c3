package heuristic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tupelo/internal/relation"
	"tupelo/internal/search"
	"tupelo/internal/tnf"
)

func target() *relation.Database {
	return relation.MustDatabase(
		relation.MustNew("Flights", []string{"Carrier", "Fee"},
			relation.Tuple{"AirEast", "15"},
			relation.Tuple{"JetWest", "16"},
		),
	)
}

func TestAllHeuristicsZeroAtGoal(t *testing.T) {
	// h(t) = 0 is what lets f = g + h stop cleanly at the goal; the paper's
	// set heuristics measure pure token differences, so identical databases
	// score zero. (h2 can be non-zero at the goal only when a token plays
	// two roles inside the target itself; the target here is role-clean.)
	tgt := target()
	for _, kind := range Kinds() {
		e := New(kind, tgt, 10)
		if got := e.Estimate(tgt.Clone()); got != 0 {
			t.Fatalf("%s at goal = %d, want 0", kind, got)
		}
	}
}

func TestH1CountsMissingTokens(t *testing.T) {
	e := New(H1, target(), 0)
	// x shares the relation name and one attribute; it is missing attribute
	// Fee and all four data values, and adds tokens of its own (which h1
	// ignores: it only counts target-side tokens missing from x).
	x := relation.MustDatabase(
		relation.MustNew("Flights", []string{"Carrier", "Price"},
			relation.Tuple{"AirEast", "99"},
		),
	)
	// Missing: REL none; ATT {Fee}; VALUE {15, 16, JetWest}.
	if got := e.Estimate(x); got != 4 {
		t.Fatalf("h1 = %d, want 4", got)
	}
}

func TestH2CountsRoleCrossings(t *testing.T) {
	// Target has value "ATL29"; state has attribute "ATL29" → one promotion
	// needed (attribute must come from data or vice versa).
	tgt := relation.MustDatabase(
		relation.MustNew("Prices", []string{"Route"},
			relation.Tuple{"ATL29"},
		),
	)
	x := relation.MustDatabase(
		relation.MustNew("Prices", []string{"ATL29"},
			relation.Tuple{"100"},
		),
	)
	e := New(H2, tgt, 0)
	// πVALUE(t) ∩ πATT(x) = {ATL29}; all other intersections empty.
	if got := e.Estimate(x); got != 1 {
		t.Fatalf("h2 = %d, want 1", got)
	}
}

func TestH3IsMax(t *testing.T) {
	tgt := target()
	x := relation.MustDatabase(
		relation.MustNew("Flights", []string{"Carrier", "Price"},
			relation.Tuple{"AirEast", "99"},
		),
	)
	h1 := New(H1, tgt, 0).Estimate(x)
	h2 := New(H2, tgt, 0).Estimate(x)
	h3 := New(H3, tgt, 0).Estimate(x)
	want := h1
	if h2 > want {
		want = h2
	}
	if h3 != want {
		t.Fatalf("h3 = %d, want max(%d, %d)", h3, h1, h2)
	}
}

func TestLevenshteinHeuristicBounds(t *testing.T) {
	tgt := target()
	const k = 11
	e := New(Levenshtein, tgt, k)
	// Disjoint database: normalized distance near 1, estimate near k.
	x := relation.MustDatabase(
		relation.MustNew("Zzz", []string{"Qq"}, relation.Tuple{"ww"}),
	)
	got := e.Estimate(x)
	if got < 1 || got > k {
		t.Fatalf("levenshtein estimate = %d, want within (0, %d]", got, k)
	}
}

func TestEuclidCountsCellDifference(t *testing.T) {
	tgt := target()
	e := New(Euclid, tgt, 0)
	// Same database minus one tuple: vector differs in exactly 2 triples
	// (the two cells of the dropped tuple), each by count 1 → √2 ≈ 1.41 → 1.
	x := relation.MustDatabase(
		relation.MustNew("Flights", []string{"Carrier", "Fee"},
			relation.Tuple{"AirEast", "15"},
		),
	)
	if got := e.Estimate(x); got != 1 {
		t.Fatalf("hE = %d, want round(√2) = 1", got)
	}
}

func TestCosineRange(t *testing.T) {
	tgt := target()
	const k = 24
	e := New(Cosine, tgt, k)
	disjoint := relation.MustDatabase(
		relation.MustNew("Zzz", []string{"Qq"}, relation.Tuple{"ww"}),
	)
	if got := e.Estimate(disjoint); got != k {
		t.Fatalf("cosine on disjoint = %d, want %d", got, k)
	}
	overlap := relation.MustDatabase(
		relation.MustNew("Flights", []string{"Carrier", "Fee"},
			relation.Tuple{"AirEast", "15"},
		),
	)
	got := e.Estimate(overlap)
	if got <= 0 || got >= k {
		t.Fatalf("cosine on overlap = %d, want strictly between 0 and %d", got, k)
	}
}

func TestCosineEmptyStates(t *testing.T) {
	empty := relation.MustDatabase()
	e := New(Cosine, empty, 5)
	if got := e.Estimate(empty); got != 0 {
		t.Fatalf("cosine(∅, ∅) = %d, want 0", got)
	}
	e2 := New(Cosine, target(), 5)
	if got := e2.Estimate(empty); got != 5 {
		t.Fatalf("cosine(∅, t) = %d, want k", got)
	}
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), back, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind String should be non-empty")
	}
}

func TestScaled(t *testing.T) {
	want := map[Kind]bool{
		H0: false, H1: false, H2: false, H3: false,
		Levenshtein: true, Euclid: false, EuclidNorm: true, Cosine: true,
	}
	for k, w := range want {
		if k.Scaled() != w {
			t.Fatalf("%s.Scaled() = %v, want %v", k, k.Scaled(), w)
		}
	}
}

func TestDefaultKMatchesPaperTable(t *testing.T) {
	cases := []struct {
		algo search.Algorithm
		kind Kind
		want float64
	}{
		{search.IDA, EuclidNorm, 7},
		{search.IDA, Cosine, 5},
		{search.IDA, Levenshtein, 11},
		{search.RBFS, EuclidNorm, 20},
		{search.RBFS, Cosine, 24},
		{search.RBFS, Levenshtein, 15},
		{search.IDA, H1, 1},
		{search.RBFS, H0, 1},
		{search.AStar, Cosine, 24},
	}
	for _, c := range cases {
		if got := DefaultK(c.algo, c.kind); got != c.want {
			t.Fatalf("DefaultK(%s, %s) = %g, want %g", c.algo, c.kind, got, c.want)
		}
	}
}

func TestEstimatorAccessors(t *testing.T) {
	e := New(Cosine, target(), 24)
	if e.Name() != "cosine" || e.Kind() != Cosine || e.K() != 24 {
		t.Fatalf("accessors: %s %v %g", e.Name(), e.Kind(), e.K())
	}
	// k ≤ 0 falls back to 1.
	if New(Cosine, target(), 0).K() != 1 {
		t.Fatal("zero k should default to 1")
	}
}

func TestLevenshteinDistanceTable(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"saturday", "sunday", 3},
	}
	for _, c := range cases {
		if got := LevenshteinDistance(c.a, c.b); got != c.want {
			t.Fatalf("L(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, rng.Intn(n))
	for i := range b {
		b[i] = byte('a' + rng.Intn(4))
	}
	return string(b)
}

// Levenshtein must satisfy the metric axioms.
func TestPropertyLevenshteinMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randString(rng, 12), randString(rng, 12), randString(rng, 12)
		dab := LevenshteinDistance(a, b)
		dba := LevenshteinDistance(b, a)
		dac := LevenshteinDistance(a, c)
		dcb := LevenshteinDistance(c, b)
		if dab != dba { // symmetry
			return false
		}
		if LevenshteinDistance(a, a) != 0 { // identity
			return false
		}
		if a != b && dab == 0 { // separation
			return false
		}
		return dab <= dac+dcb // triangle inequality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Levenshtein distance is bounded by the longer string's length.
func TestPropertyLevenshteinBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randString(rng, 20), randString(rng, 20)
		d := LevenshteinDistance(a, b)
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		return d >= diff && d <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randDB(rng *rand.Rand) *relation.Database {
	n := 1 + rng.Intn(2)
	rels := make([]*relation.Relation, n)
	for i := range rels {
		attrs := []string{"A", "B"}
		r := relation.MustNew("R"+string(rune('0'+i)), attrs)
		for k := rng.Intn(4); k > 0; k-- {
			var err error
			r, err = r.Insert(relation.Tuple{
				"v" + string(rune('0'+rng.Intn(4))),
				"w" + string(rune('0'+rng.Intn(4))),
			})
			if err != nil {
				panic(err)
			}
		}
		rels[i] = r
	}
	return relation.MustDatabase(rels...)
}

// Every heuristic must be non-negative everywhere and zero for x = t
// whenever t is role-clean (no token plays two TNF roles).
func TestPropertyNonNegativeAndZeroAtSelf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tgt := randDB(rng)
		x := randDB(rng)
		for _, kind := range Kinds() {
			e := New(kind, tgt, 7)
			if e.Estimate(x) < 0 {
				return false
			}
			if kind != H2 && e.Estimate(tgt) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Vector algebra sanity, now through the fragment-backed aggregate: the
// integer sums seedAgg maintains (x·t, |x|², |t|²) must equal the reference
// computed directly from tnf.Encode's triples, with the target read through
// its index.
func TestPropertyVectorAggregate(t *testing.T) {
	f := func(a, b int64) bool {
		x := randDB(rand.New(rand.NewSource(a)))
		tgt := randDB(rand.New(rand.NewSource(b)))
		tv := New(Cosine, tgt, 1).(*aggEvaluator).tv
		if tv.ix != tgt.TargetIndex() {
			return false
		}
		ag := seedAgg(x, tv, needVec)

		counts := func(db *relation.Database) map[[3]string]int64 {
			out := make(map[[3]string]int64)
			for _, tr := range tnf.Encode(db).Triples() {
				out[tr]++
			}
			return out
		}
		xv, tc := counts(x), counts(tgt)
		var dot, xSq, tSq int64
		for k, c := range xv {
			xSq += c * c
			dot += c * tc[k]
		}
		for _, c := range tc {
			tSq += c * c
		}
		return dot == ag.dot && xSq == ag.normSq && tSq == tv.normSq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// emptyCellCase is a target with an empty cell and states to estimate
// against it, one with an empty cell of its own.
func emptyCellCase() (tgt *relation.Database, states []*relation.Database) {
	tgt = relation.MustDatabase(relation.MustNew("T", []string{"a", "b"},
		relation.Tuple{"x", ""}, relation.Tuple{"y", "a"}))
	return tgt, []*relation.Database{
		relation.MustDatabase(relation.MustNew("R", []string{"n", "v"},
			relation.Tuple{"a", ""}, relation.Tuple{"b", "z"})),
		relation.MustDatabase(relation.MustNew("T", []string{"a", "b"},
			relation.Tuple{"x", "q"})),
		relation.MustDatabase(
			relation.MustNew("S", []string{"a"}),
			relation.MustNew("T", []string{"b", "c"}, relation.Tuple{"", "y"})),
		tgt,
	}
}

// TestEmptyCellTarget: a target's empty cell is in none of tnf.Encode's
// projections, so every kind must estimate as if it were absent. h1, h2,
// h3, cosine and Jaccard are recomputed from the projections and triples of
// tnf.Encode; every kind also matches values pinned before the target index
// replaced the evaluators' own sets.
func TestEmptyCellTarget(t *testing.T) {
	tgt, states := emptyCellCase()
	pinned := map[Kind][]int{
		H0:          {0, 0, 0, 0},
		H1:          {5, 2, 2, 0},
		H2:          {2, 1, 1, 2},
		H3:          {5, 2, 2, 2},
		Levenshtein: {10, 5, 6, 0},
		Euclid:      {3, 2, 2, 0},
		EuclidNorm:  {14, 11, 12, 0},
		Cosine:      {10, 6, 7, 0},
		Hybrid:      {7, 4, 4, 2},
		Jaccard:     {9, 4, 5, 0},
	}
	const k = 10
	tp := tnf.Encode(tgt)
	tsets := [3]map[string]bool{tp.RelSet(), tp.AttSet(), tp.ValueSet()}
	for i, x := range states {
		xp := tnf.Encode(x)
		xsets := [3]map[string]bool{xp.RelSet(), xp.AttSet(), xp.ValueSet()}
		var h1, h2, inter, union int
		for c := range tsets {
			for tok := range tsets[c] {
				if !xsets[c][tok] {
					h1++
				}
				for d := range xsets {
					if d != c && xsets[d][tok] {
						h2++
					}
				}
			}
			union += len(tsets[c])
			for tok := range xsets[c] {
				if tsets[c][tok] {
					inter++
				} else {
					union++
				}
			}
		}
		counts := func(p *tnf.Table) map[[3]string]int64 {
			out := make(map[[3]string]int64)
			for _, tr := range p.Triples() {
				out[tr]++
			}
			return out
		}
		xv, tc := counts(xp), counts(tp)
		var dot, xSq, tSq int64
		for key, c := range xv {
			xSq += c * c
			dot += c * tc[key]
		}
		for _, c := range tc {
			tSq += c * c
		}
		cos := math.Min(1, math.Max(0, float64(dot)/(math.Sqrt(float64(xSq))*math.Sqrt(float64(tSq)))))
		want := map[Kind]int{
			H1:      h1,
			H2:      h2,
			H3:      max(h1, h2),
			Cosine:  int(math.Round(k * (1 - cos))),
			Jaccard: int(math.Round(k * (1 - float64(inter)/float64(union)))),
		}
		for _, kind := range allKinds() {
			got := New(kind, tgt, k).Estimate(x)
			if w, ok := want[kind]; ok && got != w {
				t.Errorf("state %d: %s = %d, want %d from tnf.Encode", i, kind, got, w)
			}
			if got != pinned[kind][i] {
				t.Errorf("state %d: %s = %d, pinned %d", i, kind, got, pinned[kind][i])
			}
		}
	}
}
