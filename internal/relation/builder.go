package relation

import "fmt"

// Builder assembles a relation row by row in O(total rows): duplicate
// detection is a hash-set lookup per row — the same fixed-width symbol
// row keys Insert's memoized row set uses — and symbols are appended to the
// columns in place instead of cloning the whole relation per insertion as
// the copy-on-write Insert does. The fira operators that construct
// multi-row outputs with possible duplicates (union) build through it;
// operators whose outputs are provably duplicate-free (demote, product,
// partition, merge) splice columns directly via NewFromColumns.
//
// A Builder is single-goroutine. Relation finalizes it; using a finalized
// builder is an error, so the published relation stays immutable.
type Builder struct {
	rel  *Relation
	seen map[string]bool
	syms []Symbol // per-row interning scratch
	buf  []byte   // row-key scratch
}

// NewBuilder starts a relation with the given schema and no rows. It fails
// under exactly the conditions New does (empty or duplicate names).
func NewBuilder(name string, attrs []string) (*Builder, error) {
	r, err := newEmpty(name, attrs)
	if err != nil {
		return nil, err
	}
	return &Builder{
		rel:  r,
		seen: make(map[string]bool),
		syms: make([]Symbol, len(attrs)),
		buf:  make([]byte, 0, 4*len(attrs)),
	}, nil
}

// Add appends a copy of the row, enforcing arity; duplicate rows are
// silently dropped (set semantics), exactly as New and Insert do.
func (b *Builder) Add(row Tuple) error {
	if b.rel == nil {
		return fmt.Errorf("relation: builder used after Relation()")
	}
	if len(row) != len(b.rel.attrs) {
		return fmt.Errorf("relation %s: row arity %d does not match schema arity %d", b.rel.name, len(row), len(b.rel.attrs))
	}
	for j, v := range row {
		b.syms[j] = Intern(v)
	}
	return b.addSyms(b.syms)
}

// AddSymbols appends a row given as interned symbols, copying the slice;
// the symbol-space counterpart of Add for operators that never leave the
// columns.
func (b *Builder) AddSymbols(syms []Symbol) error {
	if b.rel == nil {
		return fmt.Errorf("relation: builder used after Relation()")
	}
	if len(syms) != len(b.rel.attrs) {
		return fmt.Errorf("relation %s: row arity %d does not match schema arity %d", b.rel.name, len(syms), len(b.rel.attrs))
	}
	return b.addSyms(syms)
}

// addSyms is the shared dedupe-and-append tail; callers have checked arity.
func (b *Builder) addSyms(syms []Symbol) error {
	b.buf = b.buf[:0]
	for _, s := range syms {
		b.buf = appendSymKey(b.buf, s)
	}
	if b.seen[string(b.buf)] {
		return nil
	}
	b.seen[string(b.buf)] = true
	b.rel.appendRowSyms(syms)
	return nil
}

// Len returns the number of distinct rows added so far.
func (b *Builder) Len() int {
	if b.rel == nil {
		return 0
	}
	return b.rel.nrows
}

// Relation finalizes the builder and returns the built relation. The
// builder must not be used afterwards (Add fails), which keeps the
// returned relation immutable — a requirement of the canonical-form
// memoization.
func (b *Builder) Relation() *Relation {
	r := b.rel
	b.rel, b.seen = nil, nil
	return r
}
