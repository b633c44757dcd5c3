package heuristic

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"tupelo/internal/relation"
)

// Evaluator is a heuristic bound to a fixed target critical instance, with
// the target-side structures precomputed once. Evaluators are immutable
// after construction and safe for concurrent use by multiple goroutines.
//
// New returns one evaluator per Kind; the monolithic kind-switch estimator
// this package used to expose is gone. Callers that only evaluate states
// from scratch use this interface; callers that evaluate successors against
// their parents detect the IncrementalEvaluator capability through
// AsIncremental.
type Evaluator interface {
	// Kind returns the heuristic's kind.
	Kind() Kind
	// K returns the scaling constant in effect.
	K() float64
	// Name returns the heuristic's name.
	Name() string
	// Estimate computes h(x) for a database state from scratch.
	Estimate(x *relation.Database) int
}

// Delta describes how a built successor state differs from its parent: the
// TNF fragments of the relations removed from the parent and of those added
// in their place. For a FIRA operator application this is one replaced slot
// (or two collapsing into one for unions, one fanning out for partitions);
// relation.Diff recovers the relations from any copy-on-write parent/child
// pair by pointer comparison. A child that is not built yet is estimated
// from its relation.Edit instead (EstimateEdit). Its slices are borrowed for
// the call they are passed to: an evaluator reads them and keeps nothing,
// so a caller may refill them for its next successor.
type Delta struct {
	Removed []*relation.Fragment
	Added   []*relation.Fragment
}

// Agg is an opaque per-state aggregate: the running multiset sums an
// incremental evaluator keeps over a state's fragments, so each successor's
// estimate is arithmetic on the sums its operator changes rather than a
// re-encoding. An aggregate is seeded for the state being expanded and read
// by the estimates of its successors; no estimate modifies it.
type Agg interface{ isAgg() }

// IncrementalEvaluator is the capability interface an Evaluator implements
// when it can estimate a successor from the parent's aggregate and what
// the successor changes: the replaced relations' TNF fragments
// (EstimateDelta) or, for a previewed ρ^att or π̄ child, an edit of one
// relation's fragment (EstimateEdit). The capability is optional, detected
// by AsIncremental, and callers fall back to Estimate when it is absent.
//
// For every evaluator in this package both paths are exactly arithmetic on
// the same integer multiset counters Estimate computes from scratch, so
// EstimateDelta(Seed(parent), Diff(parent, child)) and
// EstimateEdit(Seed(parent), edit) are bit-identical to Estimate(child) —
// the differential tests pin this. Neither allocates.
type IncrementalEvaluator interface {
	Evaluator
	// Seed builds the aggregate for a state from scratch.
	Seed(x *relation.Database) Agg
	// EstimateDelta returns h(child), given the parent's aggregate and the
	// parent→child delta. d.Removed must be fragments of relations of the
	// parent state (as relation.Diff returns them); parent is not modified
	// and may be shared concurrently.
	EstimateDelta(parent Agg, d Delta) int
	// EstimateEdit returns h(child) for a child that is e applied to the
	// parent: e.Frag must be the fragment of a relation of the parent
	// state, and the child Derivable (relation.ChildHash.Edit). parent is
	// not modified and may be shared concurrently.
	EstimateEdit(parent Agg, e relation.Edit) int
}

// AsIncremental reports whether the evaluator supports incremental
// evaluation, returning the capability view if so. Evaluators that do not
// implement the capability are evaluated from scratch — the conservative
// reading for caller-provided implementations.
func AsIncremental(e Evaluator) (IncrementalEvaluator, bool) {
	ie, ok := e.(IncrementalEvaluator)
	return ie, ok
}

// New builds an evaluator for the given heuristic kind against the target.
// k is the scaling constant for the normalized heuristics; pass 0 to use
// the neutral value 1. Unscaled heuristics ignore k. The Unset kind
// resolves to Cosine, the paper's overall best.
func New(kind Kind, target *relation.Database, k float64) Evaluator {
	if kind == Unset {
		kind = Cosine
	}
	if k <= 0 {
		k = 1
	}
	b := base{kind: kind, k: k, tv: newTargetView(target)}
	var need needs
	switch kind {
	case H1, H2, H3:
		need = needSets
	case Euclid, EuclidNorm, Cosine:
		need = needVec
	case Jaccard:
		need = needJac
	case Hybrid:
		need = needSets | needShape
	case Levenshtein:
		return &levEvaluator{base: b, pat: newEditPattern(canonicalString(target))}
	default:
		// H0 and any unknown kind: constant zero, as before the redesign.
		return &zeroEvaluator{b}
	}
	return &aggEvaluator{base: b, need: need}
}

// targetView is the target critical instance as the evaluators compare
// states with it: its index (relation.TargetIndex), shared with every other
// reader of the same target, holds the token roles and the fragments by
// relation name, whose disjoint union is the term vector; the view adds the
// totals derived from them. hL's canonical string lives on its own
// evaluator, the only reader, as an edit pattern.
type targetView struct {
	ix     *relation.TargetIndex
	tTotal int // Σ roles over tokens, the Jaccard target mass
	normSq int64
	norm   float64
	shape  shape
}

func newTargetView(target *relation.Database) *targetView {
	tv := &targetView{ix: target.TargetIndex(), shape: shape{rels: target.Len()}}
	for _, role := range tv.ix.Roles() {
		tv.tTotal += popcount(role)
	}
	for _, r := range target.RelationView() {
		f := r.TNFFragment()
		// Triple keys are disjoint across relations, so norms add.
		tv.normSq += f.VecSq
		tv.shape.attrs += f.Arity
		tv.shape.tuples += f.Tuples
	}
	tv.norm = math.Sqrt(float64(tv.normSq))
	return tv
}

// canonicalString merges the sorted Parts of every fragment into the §3
// string(d) serialization — identical to tnf.Encode(db).CanonicalString()
// but assembled from the memoized per-relation pieces.
func canonicalString(db *relation.Database) string {
	var parts []string
	n := 0
	for _, r := range db.Relations() {
		fp := r.TNFFragment().Parts()
		parts = append(parts, fp...)
		for _, p := range fp {
			n += len(p)
		}
	}
	sort.Strings(parts)
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		b.WriteString(p)
	}
	return b.String()
}

// base carries the configuration every evaluator shares.
type base struct {
	kind Kind
	k    float64
	tv   *targetView
}

func (b *base) Kind() Kind   { return b.kind }
func (b *base) K() float64   { return b.k }
func (b *base) Name() string { return b.kind.String() }

// needs selects which aggregate counters an evaluator maintains, so each
// kind pays only for the sums its finish function reads.
type needs uint8

const (
	needSets  needs = 1 << iota // h1 and h2 membership counters
	needVec                     // term-vector dot product and squared norm
	needJac                     // Jaccard intersection and distinct counts
	needShape                   // relation/attribute/tuple totals
)

// agg is the aggregate behind Agg: the state's fragments, one per relation,
// plus the running sums. All counters are integers (multiset
// multiplicities and integer-valued dot products/norms), exact in int and
// int64, which is what makes removal exact and the incremental estimates
// bit-identical to from-scratch ones. A successor's estimate works on a
// stack copy of the parent's sums and reads the parent's summed token
// counts (attCount, valCount) through the parent's frags.
type agg struct {
	// frags is a flat slice; every consumer sums over it, so its order is
	// irrelevant.
	frags []*relation.Fragment

	// needSets: h1 = target tokens missing from x; h2 = cross-category
	// role collisions. Maintained under membership flips.
	h1, h2 int
	// needVec: dot = Σ x_k·t_k, normSq = Σ x_k².
	dot, normSq int64
	// needJac: interJ = Σ_category |X ∩ T|, distinctJ = Σ_category |X|.
	interJ, distinctJ int
	// needShape: structural totals of x.
	rels, attrs, tuples int
}

func (*agg) isAgg() {}

// roles returns the projections of the state that hold s. Relation names
// are unique, so presence in frags is membership in the REL projection;
// attribute and value tokens overlap across relations, so their membership
// is a sum over fragments — O(|relations|), with |relations| small by the
// paper's construction (critical instances).
func (a *agg) roles(s relation.Symbol) relation.Role {
	var x relation.Role
	if containsName(a.frags, s) {
		x |= relation.RoleRel
	}
	if a.attCount(s) > 0 {
		x |= relation.RoleAtt
	}
	if a.valCount(s) > 0 {
		x |= relation.RoleVal
	}
	return x
}

// attCount sums the ATT-projection multiplicity of s over the fragments.
func (a *agg) attCount(s relation.Symbol) int {
	n := 0
	for _, f := range a.frags {
		n += f.AttCount(s)
	}
	return n
}

// valCount is attCount for the VALUE projection.
func (a *agg) valCount(s relation.Symbol) int {
	n := 0
	for _, f := range a.frags {
		n += f.ValCount(s)
	}
	return n
}

// fragDot returns Σ_k f.Vec[k]·t_k — the fragment's exact contribution to
// the state·target dot product. Triple keys embed the relation name, so
// only the target fragment of the same name can share a key with f.
func fragDot(f *relation.Fragment, tv *targetView) int64 {
	t := tv.ix.Fragment(f.Rel)
	if t == nil {
		return 0
	}
	return f.Dot(t)
}

// seedAgg builds a state's aggregate from scratch: fragments merged, sums
// computed directly from their definitions. Estimate() for incremental
// kinds is finish(seedAgg(x)), so seeding is also the reference
// implementation the delta path must agree with.
func seedAgg(x *relation.Database, tv *targetView, need needs) *agg {
	rels := x.RelationView()
	a := &agg{frags: make([]*relation.Fragment, len(rels))}
	for i, r := range rels {
		a.frags[i] = r.TNFFragment()
	}
	if need&needVec != 0 {
		for _, f := range a.frags {
			a.normSq += f.VecSq
			a.dot += fragDot(f, tv)
		}
	}
	if need&(needSets|needJac) != 0 {
		// One walk of the target's tokens: with t the roles a token holds in
		// the target and x those it holds in the state, h1 counts t's roles x
		// lacks, h2 each role of t against every other role of x, and the
		// Jaccard intersection the roles both hold.
		for s, t := range tv.ix.Roles() {
			x := a.roles(s)
			if need&needSets != 0 {
				a.h1 += popcount(t &^ x)
				a.h2 += popcount(t)*popcount(x) - popcount(t&x)
			}
			if need&needJac != 0 {
				a.interJ += popcount(t & x)
			}
		}
	}
	if need&needJac != 0 {
		// The state's distinct tokens per projection; relation names are
		// unique.
		a.distinctJ += len(a.frags)
		distinct := make(map[relation.Symbol]relation.Role)
		for _, f := range a.frags {
			for _, e := range f.Atts {
				distinct[e.Sym] |= relation.RoleAtt
			}
			for _, e := range f.Vals {
				distinct[e.Sym] |= relation.RoleVal
			}
		}
		for _, x := range distinct {
			a.distinctJ += popcount(x)
		}
	}
	if need&needShape != 0 {
		a.rels = len(a.frags)
		for _, f := range a.frags {
			a.attrs += f.Arity
			a.tuples += f.Tuples
		}
	}
	return a
}

// deltaAgg derives the child's sums from the parent's by subtracting the
// removed fragments' counters and adding the new ones. Exactness rests on
// three facts: (1) all counters are integer multiset multiplicities, so
// subtraction undoes addition with no residue; (2) Vec triple keys embed the
// relation name, so a removed fragment's counts are exactly the parent's
// counts under that name, and an added fragment lands on counts that are
// zero — the norm and dot adjustments below need no per-key parent lookups;
// (3) ATT/VALUE tokens do overlap across relations, so membership changes
// are detected by comparing the parent's summed count with the summed count
// after the net per-token delta (a membership flip adjusts h1/h2/Jaccard by
// the same ±1 the from-scratch recount would see). The sums are returned by
// value for the caller's finish, so the call allocates nothing for a
// single-replacement delta.
func deltaAgg(p *agg, d Delta, tv *targetView, need needs) agg {
	a := *p
	remF, addF := d.Removed, d.Added

	if need&needVec != 0 {
		for _, f := range remF {
			a.normSq -= f.VecSq
			a.dot -= fragDot(f, tv)
		}
		for _, f := range addF {
			a.normSq += f.VecSq
			a.dot += fragDot(f, tv)
		}
	}
	if need&(needSets|needJac) != 0 {
		// REL category: names are unique per database, so presence flips
		// are exactly the names not shared between removed and added.
		for _, f := range remF {
			if !containsName(addF, f.Rel) {
				a.flip(f.Rel, relation.RoleRel, -1, tv, need)
			}
		}
		for _, f := range addF {
			if !containsName(remF, f.Rel) {
				a.flip(f.Rel, relation.RoleRel, +1, tv, need)
			}
		}
		// ATT and VALUE categories: only tokens of changed fragments can
		// flip; their membership before/after is judged against the
		// parent's summed counts plus the net delta.
		forEachFlip(remF, addF, fragAtts, p.attCount, func(s relation.Symbol, dir int) {
			a.flip(s, relation.RoleAtt, dir, tv, need)
		})
		forEachFlip(remF, addF, fragVals, p.valCount, func(s relation.Symbol, dir int) {
			a.flip(s, relation.RoleVal, dir, tv, need)
		})
	}
	if need&needShape != 0 {
		for _, f := range remF {
			a.rels--
			a.attrs -= f.Arity
			a.tuples -= f.Tuples
		}
		for _, f := range addF {
			a.rels++
			a.attrs += f.Arity
			a.tuples += f.Tuples
		}
	}
	return a
}

// emptySym is the interned empty string: the value of an empty cell and of
// a schema-only TNF row, which no VALUE multiset counts.
var emptySym = relation.Intern("")

// editAgg derives the child's sums from the parent's for a Derivable ρ^att
// or π̄ child stated as an edit of one relation's fragment f, without the
// child's fragment. Let c_A be f's ATT count of the edited attribute A, and
// t(R,a,v) the target's count of triple (R,a,v). A rename A→B moves c_A
// from A to B in the ATT multiset and relabels A's Vec block: dot changes by
// c·(t(R,B,v) − t(R,A,v)) for each block entry (R,A,v,c), and VALUE, REL,
// the shape and normSq do not change. A drop of A removes c_A from A in the
// ATT multiset and each non-empty block value's count c from VALUE (a value
// appears at most once in a block), Σc² from normSq, Σc·t(R,A,v) from dot,
// and one attribute from the shape. Each changed token's membership flip is
// judged against the parent's summed count, as forEachFlip does. The edit
// lists exactly the multiset changes Fragment's derivation makes, so the
// sums equal deltaAgg's for the derived fragment, bit for bit.
func editAgg(p *agg, e relation.Edit, tv *targetView, need needs) agg {
	a := *p
	if !e.Drop && e.To == e.Att {
		return a
	}
	block := e.Block()
	if need&needVec != 0 {
		t := tv.ix.Fragment(e.Frag.Rel) // nil: no target triple embeds R
		for _, x := range block {
			c := int64(x.N)
			if e.Drop {
				a.normSq -= c * c
			}
			if t == nil {
				continue
			}
			a.dot -= c * int64(t.VecCount(x.Triple))
			if !e.Drop {
				x.Triple[1] = e.To
				a.dot += c * int64(t.VecCount(x.Triple))
			}
		}
	}
	if need&(needSets|needJac) != 0 {
		cA := e.Frag.AttCount(e.Att)
		if dir := flipDir(p.attCount(e.Att), -cA); dir != 0 {
			a.flip(e.Att, relation.RoleAtt, dir, tv, need)
		}
		if !e.Drop {
			if dir := flipDir(p.attCount(e.To), cA); dir != 0 {
				a.flip(e.To, relation.RoleAtt, dir, tv, need)
			}
		} else {
			for _, x := range block {
				v := x.Triple[2]
				if v == emptySym {
					continue
				}
				if dir := flipDir(p.valCount(v), -int(x.N)); dir != 0 {
					a.flip(v, relation.RoleVal, dir, tv, need)
				}
			}
		}
	}
	if need&needShape != 0 && e.Drop {
		a.attrs--
	}
	return a
}

func fragAtts(f *relation.Fragment) []relation.SymbolCount { return f.Atts }
func fragVals(f *relation.Fragment) []relation.SymbolCount { return f.Vals }

func containsName(fs []*relation.Fragment, s relation.Symbol) bool {
	for _, f := range fs {
		if f.Rel == s {
			return true
		}
	}
	return false
}

// forEachFlip calls flip(s, ±1) for every token whose set membership in the
// chosen category changes under the delta. pcount reads the parent's summed
// multiplicity. The single-replacement case — one relation out, one in, the
// shape of almost every FIRA move — is one allocation-free merge walk over
// the two sorted multisets; multi-fragment deltas (union, partition) sort
// the signed entries of every changed fragment into one scratch slice and
// sum its runs.
func forEachFlip(remF, addF []*relation.Fragment, get func(*relation.Fragment) []relation.SymbolCount, pcount func(relation.Symbol) int, flip func(relation.Symbol, int)) {
	judge := func(s relation.Symbol, delta int) {
		if delta == 0 {
			return
		}
		if dir := flipDir(pcount(s), delta); dir != 0 {
			flip(s, dir)
		}
	}
	if len(remF) == 1 && len(addF) == 1 {
		rm, am := get(remF[0]), get(addF[0])
		i, k := 0, 0
		for i < len(rm) || k < len(am) {
			switch {
			case k == len(am) || i < len(rm) && rm[i].Sym < am[k].Sym:
				judge(rm[i].Sym, -int(rm[i].N))
				i++
			case i == len(rm) || am[k].Sym < rm[i].Sym:
				judge(am[k].Sym, int(am[k].N))
				k++
			default:
				judge(rm[i].Sym, int(am[k].N)-int(rm[i].N))
				i++
				k++
			}
		}
		return
	}
	var net []relation.SymbolCount
	for _, f := range remF {
		for _, e := range get(f) {
			net = append(net, relation.SymbolCount{Sym: e.Sym, N: -e.N})
		}
	}
	for _, f := range addF {
		net = append(net, get(f)...)
	}
	slices.SortFunc(net, func(a, b relation.SymbolCount) int { return cmp.Compare(a.Sym, b.Sym) })
	for i := 0; i < len(net); {
		s, delta := net[i].Sym, 0
		for ; i < len(net) && net[i].Sym == s; i++ {
			delta += int(net[i].N)
		}
		judge(s, delta)
	}
}

// flipDir returns how a token's set membership changes when its summed
// count moves from old by delta: +1 entering, −1 leaving, 0 neither.
func flipDir(old, delta int) int {
	switch now := old + delta; {
	case old == 0 && now != 0:
		return +1
	case old != 0 && now == 0:
		return -1
	}
	return 0
}

// flip applies the counter adjustments for s entering (dir +1) or leaving
// (dir −1) the state's projection c, one of the three roles, per the
// definitions of h1 (the target's tokens missing from the same projection)
// and h2 (the target's tokens present in another): with t the roles s holds
// in the target, h1 moves when t holds c, and h2 once for every other role
// of t.
func (a *agg) flip(s relation.Symbol, c relation.Role, dir int, tv *targetView, need needs) {
	t := tv.ix.Roles()[s]
	in := 0
	if t&c != 0 {
		in = dir
	}
	if need&needSets != 0 {
		a.h1 -= in
		a.h2 += dir * popcount(t&^c)
	}
	if need&needJac != 0 {
		a.distinctJ += dir
		a.interJ += in
	}
}

func popcount(r relation.Role) int { return bits.OnesCount8(uint8(r)) }

// zeroEvaluator is h0: constant zero, the paper's blind-search baseline.
// Also the fallback for unknown kinds, matching the old estimator.
type zeroEvaluator struct{ base }

func (e *zeroEvaluator) Estimate(*relation.Database) int { return 0 }

// aggEvaluator serves every kind estimated from an aggregate: H1, H2 and
// H3, the projection set-difference heuristics of §3; hE, h|E| and hcos,
// the term-vector heuristics; the extended Jaccard and hybrid kinds. need
// selects the sums its kind's finish reads.
type aggEvaluator struct {
	base
	need needs
}

// finish turns the sums into the kind's estimate. The term-vector kinds
// work from the integer sums dot, |x|² and |t|²: the squared distance is
// |x|² − 2·x·t + |t|² and the cosine x·t/(|x||t|), so both paths — seeded
// and delta-merged — go through identical float operations on identical
// integers, keeping estimates bit-identical.
func (e *aggEvaluator) finish(a *agg) int {
	switch e.kind {
	case H1:
		return a.h1
	case H2:
		return a.h2
	case H3:
		return max(a.h1, a.h2)
	case Euclid:
		distSq := a.normSq - 2*a.dot + e.tv.normSq
		if distSq < 0 {
			distSq = 0 // unreachable on exact integers; defensive
		}
		return int(math.Round(math.Sqrt(float64(distSq))))
	case Cosine:
		if a.normSq == 0 || e.tv.normSq == 0 {
			if a.normSq == 0 && e.tv.normSq == 0 {
				return 0
			}
			return int(math.Round(e.k))
		}
		cos := float64(a.dot) / (math.Sqrt(float64(a.normSq)) * e.tv.norm)
		if cos > 1 {
			cos = 1
		}
		if cos < 0 {
			cos = 0
		}
		return int(math.Round(e.k * (1 - cos)))
	case EuclidNorm: // |x/|x| − t/|t||² = 2 − 2·cos for non-zero vectors.
		if a.normSq == 0 || e.tv.normSq == 0 {
			if a.normSq == 0 && e.tv.normSq == 0 {
				return 0
			}
			// One side is the origin: the other normalizes to a unit
			// vector, so the distance is exactly 1.
			return int(math.Round(e.k))
		}
		cos := float64(a.dot) / (math.Sqrt(float64(a.normSq)) * e.tv.norm)
		if cos > 1 {
			cos = 1
		}
		return int(math.Round(e.k * math.Sqrt(2-2*cos)))
	case Jaccard:
		union := a.distinctJ + e.tv.tTotal - a.interJ
		if union == 0 {
			return 0
		}
		d := 1 - float64(a.interJ)/float64(union)
		return int(math.Round(e.k * d))
	default: // Hybrid: h1 + h2 + the shape deficit.
		dRel := deficit(e.tv.shape.rels, a.rels)
		dAttr := deficit(e.tv.shape.attrs, a.attrs)
		dTup := deficit(e.tv.shape.tuples, a.tuples)
		return a.h1 + a.h2 + max(dRel, dAttr, dTup)
	}
}

func (e *aggEvaluator) Estimate(x *relation.Database) int {
	return e.finish(seedAgg(x, e.tv, e.need))
}

func (e *aggEvaluator) Seed(x *relation.Database) Agg { return seedAgg(x, e.tv, e.need) }

func (e *aggEvaluator) EstimateDelta(parent Agg, d Delta) int {
	a := deltaAgg(parent.(*agg), d, e.tv, e.need)
	return e.finish(&a)
}

func (e *aggEvaluator) EstimateEdit(parent Agg, ed relation.Edit) int {
	a := editAgg(parent.(*agg), ed, e.tv, e.need)
	return e.finish(&a)
}

// levEvaluator is hL, the normalized Levenshtein distance of canonical
// strings. It owns the target's canonical string as an edit pattern, built
// once; each estimate runs the bit-parallel distance of the state's string
// against the pattern. It is not incremental: the distance needs the whole
// string anyway, so an aggregate would save nothing — only the string
// assembly benefits from the memoized fragment parts.
type levEvaluator struct {
	base
	pat *editPattern
}

func (e *levEvaluator) Estimate(x *relation.Database) int {
	s := canonicalString(x)
	max := len(s)
	if e.pat.m > max {
		max = e.pat.m
	}
	if max == 0 {
		return 0
	}
	d := e.pat.distance(s)
	return int(math.Round(e.k * float64(d) / float64(max)))
}
