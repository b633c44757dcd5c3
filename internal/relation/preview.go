package relation

// Child-hash previews: the Hash of a relation that WithAttrRenamed or
// WithoutAttr would build, computed from the receiver's columns before the
// child exists. A search applies the same few renames and drops to the same
// states over and over; keying each candidate child first lets it skip
// building the ones it already holds (DESIGN.md §8, "Keying before
// building"). Every preview runs the hash core Hash runs, over the parent's
// columns under the child's schema (one attribute substituted, or one
// skipped), so the previewed value is the child's hash bit for bit.

// ChildHash is a relation hash previewed before the relation is built. Only
// RenamedHash and DroppedHash make one, so SeedHash installs nothing but a
// value the hash core computed.
type ChildHash struct {
	sum [16]byte
	set bool
}

// Sum returns the previewed hash.
func (c ChildHash) Sum() [16]byte { return c.sum }

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
		return ChildHash{sum: r.Hash(), set: true}, true
	}
	if r.lookup(new) >= 0 {
		return c, false
	}
	var symArr [hashStackMax]Symbol
	syms := append(symArr[:0], r.attrSyms...)
	syms[i] = Intern(new)
	return ChildHash{sum: hashCore(r.nameSym, syms, r.cols, -1, r.nrows, nil), set: true}, true
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
	return ChildHash{sum: hashCore(r.nameSym, r.attrSyms, r.cols, j, r.nrows, keep), set: true}, true
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
