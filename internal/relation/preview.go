package relation

// Child previews: the Hash of a relation that WithAttrRenamed or WithoutAttr
// would build, computed from the receiver's columns before the child exists,
// together with what the preview resolved on the way. A search applies the
// same few renames and drops to the same states over and over; keying each
// candidate child first lets it skip building the ones it already holds, and
// stating a new child as an edit of its parent's TNF fragment lets it
// estimate the child without building it either (DESIGN.md §8, "Keying
// before building" and "Building on entry"). Every preview runs the hash
// core Hash runs, over the parent's columns under the child's schema (one
// attribute substituted, or one skipped) in the child's attribute order, so
// the previewed value is the child's hash bit for bit. The child's order
// comes from the parent's memoized order (attrOrder) in one pass: a drop
// skips the dropped position, and a rename moves the renamed position to
// where its new name sorts.

// ChildHash is a relation hash previewed before the relation is built, and
// what the preview resolved to compute it: the parent relation, the renamed
// or dropped attribute, a rename's new attribute and whether a drop
// collapses rows. Only RenamedHash and DroppedHash make one, so SeedHash
// installs nothing but a value the hash core computed, and Fragment and
// Edit derive from nothing but a preview's resolution.
type ChildHash struct {
	sum [16]byte
	set bool
	// drop marks a π̄ child (a ρ^att child otherwise); collapses marks a π̄
	// child whose rows collapse.
	drop, collapses bool
	// att is the renamed or dropped attribute, to a ρ^att child's new one.
	att, to Symbol
	parent  *Relation
}

// Sum returns the previewed hash.
func (c ChildHash) Sum() [16]byte { return c.sum }

// Parent returns the relation the child was previewed from; nil for the
// zero ChildHash.
func (c ChildHash) Parent() *Relation { return c.parent }

// RenamedHash previews WithAttrRenamed(old, new).Hash(). It declines (ok is
// false) exactly when WithAttrRenamed would fail, and also when the
// receiver is wider or longer than hashStackMax, where the preview's stack
// scratch ends; callers then build the child.
func (r *Relation) RenamedHash(old, new string) (c ChildHash, ok bool) {
	if len(r.attrs) > hashStackMax || r.nrows > hashStackMax {
		return c, false
	}
	i := r.lookup(old)
	if i < 0 || new == "" {
		return c, false
	}
	if new == old {
		return ChildHash{sum: r.Hash(), set: true, att: r.attrSyms[i], to: r.attrSyms[i], parent: r}, true
	}
	if r.lookup(new) >= 0 {
		return c, false
	}
	to := Intern(new)
	sigs, ords, strs := hashSnapshot()
	var symArr [hashStackMax]Symbol
	syms := append(symArr[:0], r.attrSyms...)
	syms[i] = to
	// The child's order is the parent's without position i, with i
	// reinserted before the first attribute its new name sorts below.
	var posArr [hashStackMax]int
	pos := posArr[:0]
	placed := false
	for _, k := range r.attrOrder() {
		k := int(k)
		if k == i {
			continue
		}
		if !placed && orderedLess(ords[to], ords[syms[k]], strs[to], strs[syms[k]]) {
			pos = append(pos, i)
			placed = true
		}
		pos = append(pos, k)
	}
	if !placed {
		pos = append(pos, i)
	}
	c = ChildHash{set: true, att: r.attrSyms[i], to: to, parent: r}
	c.sum = hashCore(sigs, r.nameSym, syms, r.cols, pos, r.nrows, nil)
	return c, true
}

// DroppedHash previews WithoutAttr(a).Hash(). Rows that the drop collapses
// are found by the same scan WithoutAttr runs up to rowScanMax rows. It
// declines (ok is false) exactly when WithoutAttr would fail, and also when
// the receiver is wider or longer than hashStackMax.
func (r *Relation) DroppedHash(a string) (c ChildHash, ok bool) {
	if len(r.attrs) > hashStackMax || r.nrows > hashStackMax {
		return c, false
	}
	j := r.lookup(a)
	if j < 0 {
		return c, false
	}
	var keep []int // nil: every row survives
	if r.nrows > 1 {
		var idxArr, keepArr [hashStackMax]int
		idx := idxArr[:0]
		for k := range r.attrs {
			if k != j {
				idx = append(idx, k)
			}
		}
		if keep = r.scanDistinctRows(keepArr[:0], idx); len(keep) == r.nrows {
			keep = nil
		}
	}
	var posArr [hashStackMax]int
	pos := posArr[:0]
	for _, k := range r.attrOrder() {
		if int(k) != j {
			pos = append(pos, int(k))
		}
	}
	sigs, _, _ := hashSnapshot()
	c = ChildHash{set: true, drop: true, collapses: keep != nil, att: r.attrSyms[j], parent: r}
	c.sum = hashCore(sigs, r.nameSym, r.attrSyms, r.cols, pos, r.nrows, keep)
	return c, true
}

// Derivable reports whether Fragment derives the child's TNF fragment, and
// Edit describes it: for every ρ^att child, and for a π̄ child that
// collapses no rows and keeps an attribute.
func (c ChildHash) Derivable() bool {
	return c.set && (!c.drop || !c.collapses && len(c.parent.attrs) > 1)
}

// Fragment derives the previewed child's TNF fragment from its parent's,
// without building the child and without a sort (Fragment.renamed,
// Fragment.dropped): the result is field for field what the built child's
// TNFFragment computes. It returns nil when the child is not Derivable.
func (c ChildHash) Fragment() *Fragment {
	if !c.Derivable() {
		return nil
	}
	pf := c.parent.TNFFragment()
	if c.drop {
		return pf.dropped(c.att)
	}
	return pf.renamed(c.att, c.to)
}

// Edit is a previewed ρ^att or π̄ child stated as an edit of its parent
// relation's TNF fragment: the token counts the operator changes, which an
// estimate reads against the parent's sums instead of deriving the child's
// fragment. A rename moves attribute Att's ATT count and its Vec block
// (Block) to To; a drop removes them, with the block's non-empty values and
// one attribute of arity. The edit lists exactly the multiset changes that
// Fragment's derivation makes.
type Edit struct {
	// Frag is the parent relation's fragment.
	Frag *Fragment
	// Att is the renamed or dropped attribute; To is a rename's new one
	// (Att itself for a rename of an attribute to its own name).
	Att, To Symbol
	// Drop marks a π̄ edit.
	Drop bool
}

// Block returns the entries of the parent fragment's Vec whose attribute
// is Att, in value order: the triples the edit relabels or removes. It
// shares the fragment's array.
func (e Edit) Block() []TripleCount {
	lo, hi := attBlock(e.Frag.Vec, e.Att)
	return e.Frag.Vec[lo:hi]
}

// Edit returns the previewed child as an edit of its parent relation's
// fragment. It describes the child's fragment only when the child is
// Derivable; a π̄ that collapses rows or leaves no attribute changes more
// than the edit lists.
func (c ChildHash) Edit() Edit {
	return Edit{Frag: c.parent.TNFFragment(), Att: c.att, To: c.to, Drop: c.drop}
}

// SeedHash installs a previewed hash as r's memoized Hash, so a child built
// after its key was previewed is never hashed again. The contract, which the
// caller keeps: c previews the constructor call that built r (c.Sum() is
// what r.Hash() would return), and no other goroutine has seen r yet, so no
// Hash call can have raced the seed. A relation whose hash is already
// memoized keeps it, and the zero ChildHash installs nothing. The preview
// tests check the first half of the contract against Clone().Hash().
func (r *Relation) SeedHash(c ChildHash) {
	if !c.set {
		return
	}
	r.memo.hashOnce.Do(func() { r.memo.hash = c.sum })
}

// SeedFragment installs f as r's memoized TNF fragment, so a child whose
// fragment was derived before it was built (ChildHash.Fragment) is never
// encoded again. Its contract is SeedHash's: f is what r.TNFFragment()
// would compute, and no other goroutine has seen r yet. A relation whose
// fragment is already memoized keeps it, and a nil f installs nothing. The
// fragment tests check the first half of the contract against
// Clone().TNFFragment().
func (r *Relation) SeedFragment(f *Fragment) {
	if f == nil {
		return
	}
	r.memo.fragOnce.Do(func() { r.memo.frag = f })
}
