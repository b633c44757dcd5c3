package relation

// ContainmentIndex is a precomputed accelerator for the paper's goal test
// (§2.3). Database.Contains runs a nested-loop scan — O(|t_rows| · |r_rows|
// · arity) per target relation — on every examined state. The target is
// fixed for the lifetime of a mapping problem, so the index encodes each
// target relation's rows into a hash set once; testing a state then costs a
// single pass over the state's symbol columns with O(1) lookups.
//
// Keys are the fixed-width symbol encodings of the projected rows — symbol
// equality is string equality within a process, so the verdicts match the
// string-path scan exactly (tests cross-check the two on randomized
// databases). The index is safe for concurrent use: it is immutable after
// construction, and Contains keeps all scratch state on the stack.
type ContainmentIndex struct {
	targets []indexedRelation
}

// indexedRelation is the preprocessed form of one target relation.
type indexedRelation struct {
	name  string
	attrs []string        // target attribute list, projection order
	rows  map[string]bool // symbol-key encodings of the target's tuples
}

// NewContainmentIndex preprocesses the target database for repeated
// containment tests.
func NewContainmentIndex(target *Database) *ContainmentIndex {
	ix := &ContainmentIndex{targets: make([]indexedRelation, 0, target.Len())}
	for _, t := range target.rels {
		ir := indexedRelation{
			name:  t.name,
			attrs: append([]string(nil), t.attrs...),
			rows:  make(map[string]bool, t.nrows),
		}
		buf := make([]byte, 0, 4*len(t.cols))
		for i := 0; i < t.nrows; i++ {
			buf = t.appendRowKey(buf[:0], i)
			ir.rows[string(buf)] = true
		}
		ix.targets = append(ix.targets, ir)
	}
	return ix
}

// Contains reports whether db contains the indexed target, with the same
// semantics as Database.Contains: every target relation must exist in db
// under the same name, and every target tuple must agree with some db tuple
// on the target's attributes.
func (ix *ContainmentIndex) Contains(db *Database) bool {
	for i := range ix.targets {
		t := &ix.targets[i]
		r, ok := db.Relation(t.name)
		if !ok || !t.contains(r) {
			return false
		}
	}
	return true
}

// contains is the per-relation half: a single pass over r's rows, encoding
// each projection onto the target attributes from the symbol columns and
// counting how many distinct target rows it hits.
func (t *indexedRelation) contains(r *Relation) bool {
	// Per-call stack scratch: the goal test runs once per examined state, so
	// the projection slices live in fixed-size local arrays for the paper's
	// single-digit arities, with a heap fallback for wider schemas. Locals
	// keep the index free of shared mutable scratch, so concurrent callers
	// may share it.
	var colsArr [attrScanMax][]Symbol
	cols := colsArr[:0]
	if len(t.attrs) > attrScanMax {
		cols = make([][]Symbol, 0, len(t.attrs))
	}
	for _, a := range t.attrs {
		j := r.lookup(a)
		if j < 0 {
			return false
		}
		cols = append(cols, r.cols[j])
	}
	need := len(t.rows)
	if need == 0 {
		return true
	}
	var bufArr [4 * attrScanMax]byte
	buf := bufArr[:0]
	if len(cols) > attrScanMax {
		buf = make([]byte, 0, 4*len(cols))
	}
	if need == 1 {
		// Single-row targets (e.g. the paper's one-tuple critical instances)
		// skip the distinct-hit bookkeeping: any projection match decides.
		for i := 0; i < r.nrows; i++ {
			buf = buf[:0]
			for _, c := range cols {
				buf = appendSymKey(buf, c[i])
			}
			// string(buf) in a map index expression does not allocate.
			if t.rows[string(buf)] {
				return true
			}
		}
		return false
	}
	found := 0
	seen := make(map[string]bool, need)
	for i := 0; i < r.nrows; i++ {
		buf = buf[:0]
		for _, c := range cols {
			buf = appendSymKey(buf, c[i])
		}
		if t.rows[string(buf)] && !seen[string(buf)] {
			seen[string(buf)] = true
			found++
			if found == need {
				break
			}
		}
	}
	return found == need
}
