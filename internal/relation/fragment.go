package relation

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"
)

// Triple is an interned (REL, ATT, VALUE) TNF triple — one dimension of the
// term-vector space of §3 of the paper, with the three tokens replaced by
// their dictionary symbols. Schema-only rows use the interned empty string
// in the ATT and/or VALUE positions, mirroring tnf.Encode's empty markers.
type Triple [3]Symbol

// Compare orders triples lexicographically by symbol, the key order of a
// fragment's Vec. Symbol order is interning order, so it only groups equal
// keys for lookup and merge walks; nothing derived from it is persisted.
func (t Triple) Compare(u Triple) int {
	for i := range t {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return +1
		}
	}
	return 0
}

// SymbolCount is one entry of a sorted symbol multiset: a symbol and its
// multiplicity, always positive.
type SymbolCount struct {
	Sym Symbol
	N   int32
}

// TripleCount is one entry of a sorted triple multiset: a triple and its
// multiplicity, always positive.
type TripleCount struct {
	Triple Triple
	N      int32
}

// Fragment is the per-relation piece of the database's TNF encoding, reduced
// to the multiset counters the heuristics consume: the projection multisets
// of the ATT and VALUE columns and the term-vector triple counts. A
// database's TNF-derived views are exact merges of its relations'
// fragments, and a successor that replaced one relation copy-on-write is the
// parent's merge minus the old fragment plus the new one — the delta-merge
// the incremental heuristic evaluators exploit.
//
// Each multiset is a flat slice sorted by strictly increasing key, so a
// point lookup is a binary search and two fragments' multisets compare in
// one merge walk. All counts are multiset multiplicities (never
// approximations), so subtracting a fragment exactly undoes adding it.
// Triple keys embed the relation name, so the Vec entries of fragments of
// differently named relations are disjoint; Atts and Vals may overlap
// across fragments and must be summed before set-membership questions are
// asked.
//
// A Fragment is immutable after construction and shared freely (always by
// pointer: the lazy Parts memo is an atomic pointer, which go vet's
// copylocks check guards against a copy).
type Fragment struct {
	// Rel is the interned relation name; its multiplicity in the REL
	// projection is RowCount.
	Rel Symbol
	// Arity and Tuples are the relation's schema arity and tuple count
	// (the structural profile the hybrid heuristic's shape term reads).
	Arity, Tuples int
	// RowCount is the number of TNF rows the relation contributes:
	// Tuples×Arity for populated relations, Arity for empty ones, 1 for
	// zero-arity ones (the schema-only totalization of tnf.Encode).
	RowCount int
	// Atts and Vals are the ATT and VALUE column multisets, excluding the
	// empty markers of schema-only rows and empty cells, matching
	// tnf.Table.AttSet/ValueSet. Sorted by symbol.
	Atts, Vals []SymbolCount
	// Vec counts each (REL, ATT, VALUE) triple, schema-only rows included,
	// matching the term vector over tnf.Table.Triples. Sorted by triple.
	Vec []TripleCount
	// VecSq is Σ c² over Vec — the fragment's exact contribution to the
	// squared Euclidean norm of the database's term vector (triple keys are
	// disjoint across relations, so norms add per fragment).
	VecSq int64

	// parts holds the lazily decoded Parts (see the Parts method); nil
	// until the first caller publishes them. Only the string-canonical
	// Levenshtein path reads them; every other consumer stays in symbol
	// space, so the strings are never built for it, and the header keeps
	// one pointer for them (120 B, the 128-B size class).
	parts atomic.Pointer[[]string]
}

// AttCount returns the multiplicity of s in the ATT projection.
func (f *Fragment) AttCount(s Symbol) int { return countOf(f.Atts, s) }

// ValCount returns the multiplicity of s in the VALUE projection.
func (f *Fragment) ValCount(s Symbol) int { return countOf(f.Vals, s) }

// VecCount returns the multiplicity of triple t in the term vector.
func (f *Fragment) VecCount(t Triple) int {
	lo, hi := 0, len(f.Vec)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.Vec[m].Triple.Compare(t) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(f.Vec) && f.Vec[lo].Triple == t {
		return int(f.Vec[lo].N)
	}
	return 0
}

// countOf binary-searches a sorted symbol multiset for s's multiplicity.
func countOf(xs []SymbolCount, s Symbol) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if xs[m].Sym < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(xs) && xs[lo].Sym == s {
		return int(xs[lo].N)
	}
	return 0
}

// Equal reports whether f and g hold the same counters: Rel, Arity,
// Tuples, RowCount, VecSq and the entries of Atts, Vals and Vec (an empty
// multiset equals a nil one). A fragment derived from a parent's
// (ChildHash.Fragment) equals the built child's.
func (f *Fragment) Equal(g *Fragment) bool {
	return f.Rel == g.Rel && f.Arity == g.Arity && f.Tuples == g.Tuples &&
		f.RowCount == g.RowCount && f.VecSq == g.VecSq &&
		slices.Equal(f.Atts, g.Atts) && slices.Equal(f.Vals, g.Vals) && slices.Equal(f.Vec, g.Vec)
}

// Dot returns the term-vector dot product Σ f.Vec[k]·g.Vec[k]: one merge
// walk over the two sorted triple multisets. Fragments of differently
// named relations share no triple, so their product is 0.
func (f *Fragment) Dot(g *Fragment) int64 {
	if f.Rel != g.Rel {
		return 0
	}
	var s int64
	i, k := 0, 0
	for i < len(f.Vec) && k < len(g.Vec) {
		switch c := f.Vec[i].Triple.Compare(g.Vec[k].Triple); {
		case c < 0:
			i++
		case c > 0:
			k++
		default:
			s += int64(f.Vec[i].N) * int64(g.Vec[k].N)
			i++
			k++
		}
	}
	return s
}

// Parts returns the REL⊙ATT⊙VALUE strings of the fragment's TNF rows in
// sorted order, with repetitions; merging the Parts of all fragments in
// sorted order yields tnf.Table.CanonicalString. The rendering is
// reconstructed from Vec — each triple with count c contributes c copies of
// its concatenation, the same multiset the per-cell construction produced —
// decoded lazily and memoized, so searches that never consult the
// string-edit-distance heuristic never pay for a single Part string.
// Racing first callers may each decode the strings, but all return the one
// slice that won the publication. The returned slice is shared: callers
// must treat it as read-only.
func (f *Fragment) Parts() []string {
	if p := f.parts.Load(); p != nil {
		return *p
	}
	strs := strsSnapshot()
	out := make([]string, 0, f.RowCount)
	for _, e := range f.Vec {
		s := strs[e.Triple[0]] + strs[e.Triple[1]] + strs[e.Triple[2]]
		for c := e.N; c > 0; c-- {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	f.parts.CompareAndSwap(nil, &out)
	return *f.parts.Load()
}

// TNFFragment returns the relation's TNF fragment, computed lazily exactly
// once and memoized alongside the canonical form (relations are immutable
// after publication; see the memo field on Relation). Safe for concurrent
// callers.
func (r *Relation) TNFFragment() *Fragment {
	m := &r.memo
	m.fragOnce.Do(func() {
		m.frag = r.computeFragment()
	})
	return m.frag
}

// computeFragment builds the fragment straight from the symbol columns,
// reproducing the exact row semantics of tnf.Encode: zero-arity relations
// contribute a single (rel, ε, ε) row, empty relations one (rel, att, ε)
// row per attribute, and populated relations one (rel, att, value) row per
// (tuple, attribute) pair. It touches each int32 cell a constant number of
// times, builds no strings, and gives each of Atts, Vec and Vals one
// allocation of exactly its final length.
func (r *Relation) computeFragment() *Fragment {
	arity := len(r.attrs)
	f := &Fragment{Rel: r.nameSym, Arity: arity, Tuples: r.nrows}
	if arity == 0 {
		f.RowCount = 1
		f.Vec = []TripleCount{{Triple{r.nameSym, emptySym, emptySym}, 1}}
		f.VecSq = 1
		return f
	}
	if r.nrows == 1 {
		r.oneRowFragment(f)
		return f
	}
	// Atts: attribute names are unique, so each column owns one entry. The
	// entries carry their column index in N until the sort has put them in
	// symbol order, which is also the column order of Vec's keys.
	f.Atts = make([]SymbolCount, arity)
	for j, a := range r.attrSyms {
		f.Atts[j] = SymbolCount{a, int32(j)}
	}
	slices.SortFunc(f.Atts, func(a, b SymbolCount) int { return cmp.Compare(a.Sym, b.Sym) })
	if r.nrows == 0 {
		f.RowCount = arity
		f.Vec = make([]TripleCount, arity)
		for k := range f.Atts {
			f.Atts[k].N = 1
			f.Vec[k] = TripleCount{Triple{r.nameSym, f.Atts[k].Sym, emptySym}, 1}
		}
		f.VecSq = int64(arity)
		return f
	}
	f.RowCount = r.nrows * arity
	// scratch holds every column, in attribute-symbol order, each sorted:
	// the runs of a column segment are Vec's entries for that attribute.
	scratch := make([]Symbol, f.RowCount)
	nvec := 0
	for k := range f.Atts {
		seg := scratch[k*r.nrows : (k+1)*r.nrows]
		copy(seg, r.cols[f.Atts[k].N])
		slices.Sort(seg)
		nvec += runs(seg)
		f.Atts[k].N = int32(r.nrows)
	}
	f.Vec = make([]TripleCount, 0, nvec)
	for k, a := range f.Atts {
		seg := scratch[k*r.nrows : (k+1)*r.nrows]
		for i := 0; i < len(seg); {
			n := runLen(seg, i)
			f.Vec = append(f.Vec, TripleCount{Triple{r.nameSym, a.Sym, seg[i]}, int32(n)})
			f.VecSq += int64(n) * int64(n)
			i += n
		}
	}
	// Vals: the non-empty cells of every column, compacted in place and
	// sorted as one multiset.
	vals := scratch[:0]
	for _, v := range scratch {
		if v != emptySym {
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	f.Vals = make([]SymbolCount, 0, runs(vals))
	for i := 0; i < len(vals); {
		n := runLen(vals, i)
		f.Vals = append(f.Vals, SymbolCount{vals[i], int32(n)})
		i += n
	}
	return f
}

// oneRowFragment fills f for a one-row relation — the shape of every exp1
// state — without computeFragment's sort scratch: each column holds one
// cell, so Vec has one triple per column, in the symbol order of Atts, and
// Vals has at most one entry per column. Atts and Vals share one allocation.
func (r *Relation) oneRowFragment(f *Fragment) {
	arity := len(r.attrs)
	f.RowCount = arity
	buf := make([]SymbolCount, 2*arity)
	f.Atts = buf[:arity:arity]
	// Insertion sort by symbol; N carries the column index until Vec is
	// built.
	for j, a := range r.attrSyms {
		k := j
		for ; k > 0 && f.Atts[k-1].Sym > a; k-- {
			f.Atts[k] = f.Atts[k-1]
		}
		f.Atts[k] = SymbolCount{a, int32(j)}
	}
	f.Vec = make([]TripleCount, arity)
	for k, a := range f.Atts {
		f.Vec[k] = TripleCount{Triple{r.nameSym, a.Sym, r.cols[a.N][0]}, 1}
		f.Atts[k].N = 1
	}
	f.VecSq = int64(arity)
	// Vals: insert each non-empty cell into the sorted multiset, counting a
	// value repeated across columns once per column.
	vals := buf[arity:arity]
	for _, c := range r.cols {
		v := c[0]
		if v == emptySym {
			continue
		}
		k := len(vals)
		for k > 0 && vals[k-1].Sym > v {
			k--
		}
		if k > 0 && vals[k-1].Sym == v {
			vals[k-1].N++
			continue
		}
		vals = append(vals, SymbolCount{})
		copy(vals[k+1:], vals[k:])
		vals[k] = SymbolCount{v, 1}
	}
	f.Vals = vals
}

// renamed derives the fragment of the relation whose attribute from is
// renamed to to, a symbol no other attribute carries (or from itself): the
// from entry of Atts and its block of Vec (the triples are ordered by
// attribute, then value, so the block is contiguous), relabelled, move to
// to's place in symbol order. The values, VecSq and the counts are
// unchanged, and Vals is shared with f. Two allocations besides the header:
// Atts and Vec.
func (f *Fragment) renamed(from, to Symbol) *Fragment {
	g := &Fragment{Rel: f.Rel, Arity: f.Arity, Tuples: f.Tuples, RowCount: f.RowCount,
		Vals: f.Vals, VecSq: f.VecSq}
	fi := atIndex(f.Atts, from)
	g.Atts = make([]SymbolCount, len(f.Atts))
	g.Atts[moveBlock(g.Atts, f.Atts, fi, fi+1, atIndex(f.Atts, to))].Sym = to
	lo, hi := attBlock(f.Vec, from)
	at, _ := attBlock(f.Vec, to)
	g.Vec = make([]TripleCount, len(f.Vec))
	k := moveBlock(g.Vec, f.Vec, lo, hi, at)
	for i := k; i < k+hi-lo; i++ {
		g.Vec[i].Triple[1] = to
	}
	return g
}

// moveBlock copies src into dst, which has src's length, with the block
// src[lo:hi] moved to where src[at] stands (at ≤ lo or at ≥ hi), and
// returns the block's position in dst.
func moveBlock[T any](dst, src []T, lo, hi, at int) int {
	if at <= lo {
		copy(dst, src[:at])
		copy(dst[at:], src[lo:hi])
		copy(dst[at+hi-lo:], src[at:lo])
		copy(dst[hi:], src[hi:])
		return at
	}
	copy(dst, src[:lo])
	copy(dst[lo:], src[hi:at])
	k := lo + at - hi
	copy(dst[k:], src[lo:hi])
	copy(dst[at:], src[at:])
	return k
}

// dropped derives the fragment of the relation with attribute att dropped,
// when the drop collapses no rows and leaves an attribute: att's Atts entry
// and its block of Vec go, the block's non-empty values are subtracted from
// Vals in one merge walk and its squared counts from VecSq, and the arity
// and row count shrink. Two allocations besides the header: Atts and Vals
// share one array, and Vec.
func (f *Fragment) dropped(att Symbol) *Fragment {
	arity := f.Arity - 1
	g := &Fragment{Rel: f.Rel, Arity: arity, Tuples: f.Tuples, RowCount: arity * f.Tuples, VecSq: f.VecSq}
	if f.Tuples == 0 {
		g.RowCount = arity
	}
	buf := make([]SymbolCount, arity+len(f.Vals))
	fi := atIndex(f.Atts, att)
	copy(buf, f.Atts[:fi])
	copy(buf[fi:arity], f.Atts[fi+1:])
	g.Atts = buf[:arity:arity]
	lo, hi := attBlock(f.Vec, att)
	vec := make([]TripleCount, len(f.Vec)-(hi-lo))
	copy(vec, f.Vec[:lo])
	copy(vec[lo:], f.Vec[hi:])
	g.Vec = vec
	// The block's values ascend like Vals; an empty cell's value is in
	// no Vals entry, so the walk passes it by.
	vals := buf[arity:arity]
	b := lo
	for _, e := range f.Vals {
		for b < hi && f.Vec[b].Triple[2] < e.Sym {
			b++
		}
		if b < hi && f.Vec[b].Triple[2] == e.Sym {
			e.N -= f.Vec[b].N
			b++
		}
		if e.N > 0 {
			vals = append(vals, e)
		}
	}
	g.Vals = vals
	for _, e := range f.Vec[lo:hi] {
		g.VecSq -= int64(e.N) * int64(e.N)
	}
	return g
}

// atIndex returns the position of the first entry of a sorted symbol
// multiset whose symbol is not below s.
func atIndex(xs []SymbolCount, s Symbol) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if xs[m].Sym < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// attBlock returns the range [lo, hi) of a fragment's Vec whose triples
// carry attribute a. A fragment's triples share their relation symbol, so
// Vec is ordered by attribute, then value, and the range is contiguous.
func attBlock(vec []TripleCount, a Symbol) (lo, hi int) {
	lo, hi = 0, len(vec)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vec[m].Triple[1] < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for hi = lo; hi < len(vec) && vec[hi].Triple[1] == a; hi++ {
	}
	return lo, hi
}

// runs counts the runs of equal symbols in a sorted slice.
func runs(s []Symbol) int {
	n := 0
	for i := range s {
		if i == 0 || s[i] != s[i-1] {
			n++
		}
	}
	return n
}

// runLen returns the length of the run of equal symbols starting at s[i].
func runLen(s []Symbol, i int) int {
	n := 1
	for i+n < len(s) && s[i+n] == s[i] {
		n++
	}
	return n
}

// emptySym is the interned empty string, the ATT/VALUE marker of
// schema-only TNF rows. Interned at init so the constant is available
// without a dictionary lookup.
var emptySym = Intern("")

// Diff compares two databases slot-by-slot by pointer identity and returns
// the relations of parent absent from child (removed) and those of child
// absent from parent (added). Successor states share every untouched
// *Relation with their parent copy-on-write, so for an operator application
// this recovers exactly the replaced slots in O(|relations|) pointer
// comparisons — no content hashing. A relation rebuilt with identical
// content appears in both slices; delta-merging it out and back in is a
// no-op, so callers need not special-case it.
func Diff(parent, child *Database) (removed, added []*Relation) {
	return AppendDiff(nil, nil, parent, child)
}

// AppendDiff is Diff appending to caller-owned slices, so a caller that
// diffs every successor it creates can reuse one pair of slices.
func AppendDiff(removed, added []*Relation, parent, child *Database) ([]*Relation, []*Relation) {
	// Both slices are name-sorted, so a single merge pass aligns the slots.
	i, j := 0, 0
	for i < len(parent.rels) && j < len(child.rels) {
		pr, cr := parent.rels[i], child.rels[j]
		switch {
		case pr.name < cr.name:
			removed = append(removed, pr)
			i++
		case pr.name > cr.name:
			added = append(added, cr)
			j++
		default:
			if pr != cr {
				removed = append(removed, pr)
				added = append(added, cr)
			}
			i++
			j++
		}
	}
	removed = append(removed, parent.rels[i:]...)
	added = append(added, child.rels[j:]...)
	return removed, added
}
