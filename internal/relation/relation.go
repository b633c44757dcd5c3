// Package relation implements the relational data model that underlies the
// TUPELO data mapping system ("Data Mapping as Search", EDBT 2006).
//
// The model is deliberately syntactic, matching the paper: every value is a
// string, relations are named sets of tuples over an ordered list of
// attribute names, and a database is a named collection of relations.
// All operations are copy-on-write so that values of these types can be used
// as immutable search states.
//
// Storage is columnar and interned (DESIGN.md §12): a Relation holds one
// dense []Symbol slice per attribute, resolved through the run-wide intern
// dictionary. The string-facing API (Tuple, Rows, ValuesOf, Value) is a
// decode layer over the columns; the hot search path — hashing, fragment
// construction, containment probes, operator application — reads the int32
// columns directly and never materializes a string.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Tuple is a single row of a relation. Its length always equals the number
// of attributes of the relation that holds it.
type Tuple []string

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have identical values position-wise.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Relation is a named set of tuples over an ordered attribute list.
// The zero value is not useful; construct relations with New or MustNew.
// Tuples are held with set semantics: exact duplicates are removed on
// construction and insertion.
//
// Cells are stored as per-attribute symbol columns: cols[j][i] is the
// interned value of attribute j in row i, and every column has length
// nrows. Name and attributes are kept both as strings (the API's currency)
// and as their symbols (the hot path's).
type Relation struct {
	name     string
	nameSym  Symbol
	attrs    []string
	attrSyms []Symbol
	cols     [][]Symbol
	nrows    int

	// memo caches every lazily derived identity of the relation — 128-bit
	// hash, canonical fingerprint, TNF fragment, distinct column values, row
	// key set — each computed exactly once. Relations are immutable once
	// published — every constructor in this package finishes mutating
	// columns before the value escapes — so the memoization is sound, and
	// the sync.Onces make the lazy computations safe when concurrent
	// discoveries (portfolio members, server jobs) race to identify states
	// that share a relation of their common input. The memo is
	// embedded, so a relation and its memo are one allocation; every
	// constructor builds a fresh Relation, and none is ever copied by value
	// (go vet's copylocks check guards the sync.Onces).
	memo canonMemo
}

// canonMemo holds the lazily computed derived forms of a relation. The
// fields group into independent sync.Once-guarded families so each consumer
// pays only for what it uses. Every search successor builds at least one
// relation, so the memo keeps inline only what the successor path reads —
// the hash, the TNF fragment, the distinct symbols and the wide-schema
// attribute index — and moves the rest behind the cold pointer, allocated
// on first use.
type canonMemo struct {
	// One sync.Once per family. They are 12 bytes each and kept together,
	// so no family pays alignment padding between its Once and its value.
	hashOnce, fragOnce, symColsOnce, indexOnce, orderOnce sync.Once

	// Compact identity: two 64-bit lanes mixed over the per-symbol content
	// signatures. Content-based, so stable across processes.
	hash [16]byte

	// TNF fragment (fragment.go).
	frag *Fragment

	// Distinct symbols per column, first-occurrence order; indexed like
	// attrs. Input to the move generators' membership scans.
	symCols [][]Symbol

	// Attribute name → position, built on first lookup over a wide schema.
	// Narrow schemas — the common case — resolve attributes by linear scan
	// and never build the map: search successors are created by the million,
	// and most are hashed and discarded without a single attribute lookup,
	// so constructors must not pay for an index eagerly.
	index map[string]int

	// Attribute positions in sorted-name order, the first len(attrs)
	// entries, built by the first child preview (preview.go): every preview
	// of the relation derives its child's order from it in one pass instead
	// of sorting. Previews decline past hashStackMax attributes.
	order *[hashStackMax]uint8

	// cold holds the forms the search never reads; nil until the first
	// caller of coldMemo publishes one.
	cold atomic.Pointer[coldMemo]
}

// coldMemo holds the derived forms of a relation that only diagnostics,
// comparisons, decoding and copy-on-write insertion read.
type coldMemo struct {
	// Canonical string form: sorted-attr row renderings and fingerprint.
	// This is the retained string-path reference the differential tests
	// cross-check the columnar identities against.
	canonOnce sync.Once
	rows      []string // canonical rows: sorted-attr rendering, sorted
	fp        string   // full canonical fingerprint string

	// Distinct values per column, decoded and sorted; indexed like attrs.
	colsOnce sync.Once
	cols     [][]string

	// Symbol row keys of every row, built on first Insert against this
	// relation; shared semantics with Builder.seen. Turns the duplicate
	// check of copy-on-write insertion into one map lookup.
	rowSetOnce sync.Once
	rowSet     map[string]bool
}

// coldMemo returns the relation's cold memo, publishing an empty one on
// first use; racing callers agree on the one that won the swap.
func (r *Relation) coldMemo() *coldMemo {
	if c := r.memo.cold.Load(); c != nil {
		return c
	}
	r.memo.cold.CompareAndSwap(nil, &coldMemo{})
	return r.memo.cold.Load()
}

// attrScanMax is the widest schema resolved by linear scan; beyond it,
// lookup builds the memoized index map.
const attrScanMax = 8

// lookup returns the position of attribute a, or -1 if absent.
func (r *Relation) lookup(a string) int {
	if len(r.attrs) <= attrScanMax {
		for i, name := range r.attrs {
			if name == a {
				return i
			}
		}
		return -1
	}
	m := &r.memo
	m.indexOnce.Do(func() {
		idx := make(map[string]int, len(r.attrs))
		for i, name := range r.attrs {
			idx[name] = i
		}
		m.index = idx
	})
	if i, ok := m.index[a]; ok {
		return i
	}
	return -1
}

// validateSchema checks the constructor invariants shared by every way of
// building a relation: non-empty name, non-empty unique attribute names.
func validateSchema(name string, attrs []string) error {
	if name == "" {
		return fmt.Errorf("relation: empty relation name")
	}
	for i, a := range attrs {
		if a == "" {
			return fmt.Errorf("relation %s: empty attribute name at position %d", name, i)
		}
		for _, prev := range attrs[:i] {
			if prev == a {
				return fmt.Errorf("relation %s: duplicate attribute %q", name, a)
			}
		}
	}
	return nil
}

// newEmpty builds a rowless relation with an owned copy of the schema and
// its interned form.
func newEmpty(name string, attrs []string) (*Relation, error) {
	if err := validateSchema(name, attrs); err != nil {
		return nil, err
	}
	nameSym := Intern(name)
	attrSyms := make([]Symbol, len(attrs))
	for j, a := range attrs {
		attrSyms[j] = Intern(a)
	}
	return emptyWithSchema(name, nameSym, append([]string(nil), attrs...), attrSyms), nil
}

// emptyWithSchema builds a rowless relation over an already validated and
// interned schema, taking ownership of attrs and attrSyms.
func emptyWithSchema(name string, nameSym Symbol, attrs []string, attrSyms []Symbol) *Relation {
	return &Relation{
		name:     name,
		nameSym:  nameSym,
		attrs:    attrs,
		attrSyms: attrSyms,
		cols:     make([][]Symbol, len(attrs)),
	}
}

// New creates a relation. It fails if the name or any attribute is empty,
// attributes are duplicated, or a row's arity differs from the schema.
// Duplicate rows are silently dropped (set semantics).
func New(name string, attrs []string, rows ...Tuple) (*Relation, error) {
	r, err := newEmpty(name, attrs)
	if err != nil {
		return nil, err
	}
	switch len(rows) {
	case 0:
	case 1:
		// One row cannot duplicate anything; skip the dedupe set. The
		// paper's critical instances are single-tuple, so search successors
		// hit this path constantly.
		if len(rows[0]) != len(r.attrs) {
			return nil, fmt.Errorf("relation %s: row arity %d does not match schema arity %d", r.name, len(rows[0]), len(r.attrs))
		}
		backing := make([]Symbol, len(rows[0]))
		for j, v := range rows[0] {
			backing[j] = Intern(v)
			r.cols[j] = backing[j : j+1 : j+1]
		}
		r.nrows = 1
	default:
		seen := make(map[string]bool, len(rows))
		syms := make([]Symbol, len(attrs))
		buf := make([]byte, 0, 4*len(attrs))
		for _, row := range rows {
			if len(row) != len(r.attrs) {
				return nil, fmt.Errorf("relation %s: row arity %d does not match schema arity %d", r.name, len(row), len(r.attrs))
			}
			for j, v := range row {
				syms[j] = Intern(v)
			}
			buf = buf[:0]
			for _, s := range syms {
				buf = appendSymKey(buf, s)
			}
			if seen[string(buf)] {
				continue
			}
			seen[string(buf)] = true
			r.appendRowSyms(syms)
		}
	}
	return r, nil
}

// MustNew is like New but panics on error. It is intended for tests,
// examples, and statically known inputs.
func MustNew(name string, attrs []string, rows ...Tuple) *Relation {
	r, err := New(name, attrs, rows...)
	if err != nil {
		panic(err)
	}
	return r
}

// NewFromColumns constructs a relation directly from interned symbol
// columns, taking ownership of cols (callers must not retain or modify the
// slices). nrows is the explicit row count — it carries the information
// when arity is zero and is validated against every column otherwise. No
// duplicate detection is performed: callers guarantee the rows are
// distinct, which the column-splicing FIRA operators (demote, product,
// partition, merge) can prove structurally. This is the zero-decode
// construction path of the search hot loop.
func NewFromColumns(name string, attrs []string, cols [][]Symbol, nrows int) (*Relation, error) {
	if err := validateSchema(name, attrs); err != nil {
		return nil, err
	}
	if len(cols) != len(attrs) {
		return nil, fmt.Errorf("relation %s: %d columns for %d attributes", name, len(cols), len(attrs))
	}
	if nrows < 0 || (len(attrs) == 0 && nrows > 1) {
		return nil, fmt.Errorf("relation %s: invalid row count %d", name, nrows)
	}
	for j, c := range cols {
		if len(c) != nrows {
			return nil, fmt.Errorf("relation %s: column %q has %d values for %d rows", name, attrs[j], len(c), nrows)
		}
	}
	r := &Relation{
		name:     name,
		nameSym:  Intern(name),
		attrs:    append([]string(nil), attrs...),
		attrSyms: make([]Symbol, len(attrs)),
		cols:     cols,
		nrows:    nrows,
	}
	for j, a := range r.attrs {
		r.attrSyms[j] = Intern(a)
	}
	return r, nil
}

// appendRowSyms appends one row given as symbols, copying the values into
// the columns. Callers have already checked arity and duplicates.
func (r *Relation) appendRowSyms(syms []Symbol) {
	for j, s := range syms {
		r.cols[j] = append(r.cols[j], s)
	}
	r.nrows++
}

// appendSymKey appends the 4-byte little-endian encoding of a symbol.
// Concatenated symbol keys of one schema are injective: fixed width, so two
// rows have equal keys iff they are symbol-wise (hence string-wise) equal.
func appendSymKey(buf []byte, s Symbol) []byte {
	return append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
}

// appendRowKey appends row i's symbol key across all columns.
func (r *Relation) appendRowKey(buf []byte, i int) []byte {
	for j := range r.cols {
		buf = appendSymKey(buf, r.cols[j][i])
	}
	return buf
}

// rowSet returns the memoized symbol-key set of the relation's rows,
// building it on first use: Insert's duplicate check is then one map
// lookup, so a chain of n copy-on-write inserts costs O(n·arity) key
// encodings instead of the O(n²) tuple scans it once did.
func (r *Relation) rowSet() map[string]bool {
	m := r.coldMemo()
	m.rowSetOnce.Do(func() {
		set := make(map[string]bool, r.nrows)
		buf := make([]byte, 0, 4*len(r.cols))
		for i := 0; i < r.nrows; i++ {
			buf = r.appendRowKey(buf[:0], i)
			set[string(buf)] = true
		}
		m.rowSet = set
	})
	return m.rowSet
}

// appendValueKey appends v to buf with a length prefix, so concatenated
// encodings decode unambiguously whatever bytes the values contain —
// exact tuple equality, unlike separator-joined renderings. This is the
// string-path encoding behind the canonical fingerprint.
func appendValueKey(buf []byte, v string) []byte {
	buf = strconv.AppendInt(buf, int64(len(v)), 10)
	buf = append(buf, ':')
	return append(buf, v...)
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// NameSymbol returns the interned relation name.
func (r *Relation) NameSymbol() Symbol { return r.nameSym }

// Attrs returns a copy of the ordered attribute list.
func (r *Relation) Attrs() []string { return append([]string(nil), r.attrs...) }

// AttrView returns the ordered attribute list, shared: callers must treat
// the slice as read-only. It is Attrs without the defensive copy, for the
// move generators that read every relation's schema on every expansion.
func (r *Relation) AttrView() []string { return r.attrs }

// AttrSymbols returns the interned attribute names in schema order, shared:
// callers must treat the slice as read-only.
func (r *Relation) AttrSymbols() []Symbol { return r.attrSyms }

// Column returns attribute j's value column, shared: callers must treat the
// slice as read-only. It is the move generators' and operators' direct view
// of the storage.
func (r *Relation) Column(j int) []Symbol { return r.cols[j] }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.nrows }

// HasAttr reports whether the relation has an attribute with the given name.
func (r *Relation) HasAttr(a string) bool { return r.lookup(a) >= 0 }

// HasAttrSymbol reports whether the interned name s is one of the
// relation's attributes.
func (r *Relation) HasAttrSymbol(s Symbol) bool {
	for _, a := range r.attrSyms {
		if a == s {
			return true
		}
	}
	return false
}

// AttrIndex returns the position of attribute a, or -1 if absent.
func (r *Relation) AttrIndex(a string) int { return r.lookup(a) }

// Row returns the i-th tuple, decoded from the columns. The tuple is the
// caller's to keep.
func (r *Relation) Row(i int) Tuple {
	strs := strsSnapshot()
	out := make(Tuple, len(r.cols))
	for j := range r.cols {
		out[j] = strs[r.cols[j][i]]
	}
	return out
}

// Rows returns all tuples, decoded from the columns.
func (r *Relation) Rows() []Tuple {
	strs := strsSnapshot()
	out := make([]Tuple, r.nrows)
	for i := 0; i < r.nrows; i++ {
		row := make(Tuple, len(r.cols))
		for j := range r.cols {
			row[j] = strs[r.cols[j][i]]
		}
		out[i] = row
	}
	return out
}

// Value returns the value of attribute a in the i-th tuple.
// It returns false if the attribute does not exist.
func (r *Relation) Value(i int, a string) (string, bool) {
	j := r.lookup(a)
	if j < 0 {
		return "", false
	}
	return r.cols[j][i].String(), true
}

// HasEmptyCell reports whether any cell holds the absent value (the empty
// string) — the precondition for µ (merge) to change anything.
func (r *Relation) HasEmptyCell() bool {
	for _, c := range r.cols {
		for _, s := range c {
			if s == emptySym {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	cols := make([][]Symbol, len(r.cols))
	for j, c := range r.cols {
		cols[j] = append([]Symbol(nil), c...)
	}
	return &Relation{
		name:     r.name,
		nameSym:  r.nameSym,
		attrs:    append([]string(nil), r.attrs...),
		attrSyms: append([]Symbol(nil), r.attrSyms...),
		cols:     cols,
		nrows:    r.nrows,
	}
}

// shallowCloneSharedSchema copies the relation header and shares its schema
// (attrs, attrSyms) and column storage. Columns are immutable after
// publication and never mutated by this package, so sharing is safe; the
// full-capacity slice expressions keep an append on the copy (Insert) from
// aliasing into the original's backing arrays. Only safe for callers that
// never write into the schema slices (WithName, Insert).
func (r *Relation) shallowCloneSharedSchema() *Relation {
	cols := make([][]Symbol, len(r.cols))
	for j, c := range r.cols {
		cols[j] = c[:len(c):len(c)]
	}
	return &Relation{
		name:     r.name,
		nameSym:  r.nameSym,
		attrs:    r.attrs,
		attrSyms: r.attrSyms,
		cols:     cols,
		nrows:    r.nrows,
	}
}

// WithName returns a copy of the relation under a new name.
func (r *Relation) WithName(name string) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	out := r.shallowCloneSharedSchema()
	out.name = name
	out.nameSym = Intern(name)
	return out, nil
}

// WithAttrRenamed returns a copy with attribute old renamed to new.
func (r *Relation) WithAttrRenamed(old, new string) (*Relation, error) {
	i := r.lookup(old)
	if i < 0 {
		return nil, fmt.Errorf("relation %s: no attribute %q", r.name, old)
	}
	if new == "" {
		return nil, fmt.Errorf("relation %s: empty attribute name", r.name)
	}
	if r.lookup(new) >= 0 && new != old {
		return nil, fmt.Errorf("relation %s: attribute %q already exists", r.name, new)
	}
	attrs := append([]string(nil), r.attrs...)
	attrSyms := append([]Symbol(nil), r.attrSyms...)
	attrs[i] = new
	attrSyms[i] = Intern(new)
	// The rename shares the receiver's column headers as well as its
	// columns. That is safe because nothing appends to a published
	// relation's columns in place: Insert re-caps them through
	// shallowCloneSharedSchema before it appends.
	return &Relation{
		name:     r.name,
		nameSym:  r.nameSym,
		attrs:    attrs,
		attrSyms: attrSyms,
		cols:     r.cols,
		nrows:    r.nrows,
	}, nil
}

// withColumnSyms is the engine behind WithColumn and WithColumnSyms: append
// a new attribute whose column is the given symbol slice (ownership
// transferred). Extending distinct rows with a new column cannot create
// duplicates — if two extended rows were equal, their prefixes, the
// original already-distinct rows, would be too — so no deduplication runs.
func (r *Relation) withColumnSyms(attr string, col []Symbol) (*Relation, error) {
	if attr == "" {
		return nil, fmt.Errorf("relation %s: empty attribute name", r.name)
	}
	if r.lookup(attr) >= 0 {
		return nil, fmt.Errorf("relation %s: attribute %q already exists", r.name, attr)
	}
	if len(col) != r.nrows {
		return nil, fmt.Errorf("relation %s: %d column values for %d rows", r.name, len(col), r.nrows)
	}
	cols := make([][]Symbol, len(r.cols)+1)
	for j, c := range r.cols {
		cols[j] = c[:len(c):len(c)]
	}
	cols[len(r.cols)] = col
	return &Relation{
		name:     r.name,
		nameSym:  r.nameSym,
		attrs:    append(append(make([]string, 0, len(r.attrs)+1), r.attrs...), attr),
		attrSyms: append(append(make([]Symbol, 0, len(r.attrSyms)+1), r.attrSyms...), Intern(attr)),
		cols:     cols,
		nrows:    r.nrows,
	}, nil
}

// WithColumn returns a copy with a new attribute appended. values[i] becomes
// the value of the new attribute in row i; len(values) must equal Len().
func (r *Relation) WithColumn(attr string, values []string) (*Relation, error) {
	col := make([]Symbol, len(values))
	for i, v := range values {
		col[i] = Intern(v)
	}
	return r.withColumnSyms(attr, col)
}

// WithColumnSyms is WithColumn over already-interned values; the column's
// ownership transfers to the new relation. FIRA operators that compute the
// new column from existing columns (promote, deref) use it to keep cell
// movement inside symbol space.
func (r *Relation) WithColumnSyms(attr string, col []Symbol) (*Relation, error) {
	return r.withColumnSyms(attr, col)
}

// rowScanMax is the most rows a relation deduplicates by scanning: up to
// it, projection compares each row with the rows already kept, and a
// column's distinct symbols are found by scanning the ones found so far.
// Beyond it, both key a map. A scan's cost grows with the rows kept; the
// map's cost per row is flat but includes a hashed insert and, for
// projection, an encoded string key. Deduplicating 32 four-column rows
// (2-vCPU Linux container, Go 1.24) took 0.9–2.1 µs scanning against
// 2.7–3.7 µs through the map when rows differ in their leading columns, as
// the restructuring workload's promoted relations do, and 5.3 µs against
// 3.7 µs in the worst case, rows that differ only in their last column. At
// 64 rows the scan's typical case already ties the map.
const rowScanMax = 32

// projectCols fills out, a rowless relation over the projected schema, with
// the receiver's rows restricted to the column positions idx (in idx
// order), collapsing duplicate rows first-wins. When no duplicates arise the
// projected columns are shared with the receiver capacity-capped; otherwise
// surviving rows are gathered into fresh columns.
func (r *Relation) projectCols(out *Relation, idx []int) *Relation {
	if r.nrows <= 1 {
		// A single row cannot duplicate anything; share the columns.
		for k, j := range idx {
			c := r.cols[j]
			out.cols[k] = c[:len(c):len(c)]
		}
		out.nrows = r.nrows
		return out
	}
	var keep []int
	if r.nrows <= rowScanMax {
		var keepArr [rowScanMax]int
		keep = r.scanDistinctRows(keepArr[:0], idx)
	} else {
		keep = r.mapDistinctRows(idx)
	}
	if len(keep) == r.nrows {
		for k, j := range idx {
			c := r.cols[j]
			out.cols[k] = c[:len(c):len(c)]
		}
		out.nrows = r.nrows
		return out
	}
	for k, j := range idx {
		src := r.cols[j]
		c := make([]Symbol, len(keep))
		for n, i := range keep {
			c[n] = src[i]
		}
		out.cols[k] = c
	}
	out.nrows = len(keep)
	return out
}

// scanDistinctRows appends to keep the first row of every distinct
// restriction to the columns idx, comparing each row with the rows already
// kept: no map, no key per row.
func (r *Relation) scanDistinctRows(keep, idx []int) []int {
rows:
	for i := 0; i < r.nrows; i++ {
	kept:
		for _, k := range keep {
			for _, j := range idx {
				if c := r.cols[j]; c[i] != c[k] {
					continue kept
				}
			}
			continue rows // duplicate of kept row k
		}
		keep = append(keep, i)
	}
	return keep
}

// mapDistinctRows is scanDistinctRows for relations beyond rowScanMax rows:
// one encoded symbol key per row in a set.
func (r *Relation) mapDistinctRows(idx []int) []int {
	seen := make(map[string]bool, r.nrows)
	keep := make([]int, 0, r.nrows)
	buf := make([]byte, 0, 4*len(idx))
	for i := 0; i < r.nrows; i++ {
		buf = buf[:0]
		for _, j := range idx {
			buf = appendSymKey(buf, r.cols[j][i])
		}
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		keep = append(keep, i)
	}
	return keep
}

// WithoutAttr returns a copy with attribute a dropped (the paper's π̄
// operator at the relation level). Duplicate rows that arise from the drop
// collapse, per set semantics. Dropping an attribute keeps a valid schema
// valid, so the projected schema is built once, straight from the
// receiver's names and symbols; the column positions live on the stack up
// to attrScanMax attributes.
func (r *Relation) WithoutAttr(a string) (*Relation, error) {
	j := r.lookup(a)
	if j < 0 {
		return nil, fmt.Errorf("relation %s: no attribute %q", r.name, a)
	}
	n := len(r.attrs) - 1
	attrs := make([]string, 0, n)
	attrSyms := make([]Symbol, 0, n)
	var idxArr [attrScanMax]int
	idx := idxArr[:0]
	if n > attrScanMax {
		idx = make([]int, 0, n)
	}
	for i, name := range r.attrs {
		if i != j {
			attrs = append(attrs, name)
			attrSyms = append(attrSyms, r.attrSyms[i])
			idx = append(idx, i)
		}
	}
	return r.projectCols(emptyWithSchema(r.name, r.nameSym, attrs, attrSyms), idx), nil
}

// Project returns a copy containing only the named attributes, in the given
// order. Duplicate rows collapse.
func (r *Relation) Project(attrs []string) (*Relation, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.lookup(a)
		if j < 0 {
			return nil, fmt.Errorf("relation %s: no attribute %q", r.name, a)
		}
		idx[i] = j
	}
	out, err := newEmpty(r.name, attrs)
	if err != nil {
		return nil, err
	}
	return r.projectCols(out, idx), nil
}

// distinctSymbols computes the per-column distinct symbols exactly once, in
// first-occurrence order. Move generators ask set-membership questions
// ("does this column carry a target attribute name?") on every expansion of
// a state whose relations are mostly shared with its ancestors, so the
// memoized form turns repeated scans into slice reads over int32s. A
// relation of at most one row has no duplicates to remove: its columns are
// the answer. Up to rowScanMax rows, each column scans the symbols it has
// found so far, and all columns share one backing array; beyond, a set
// filters each column.
func (r *Relation) distinctSymbols() [][]Symbol {
	if r.nrows <= 1 {
		return r.cols
	}
	m := &r.memo
	m.symColsOnce.Do(func() {
		cols := make([][]Symbol, len(r.cols))
		if r.nrows <= rowScanMax {
			backing := make([]Symbol, 0, r.nrows*len(r.cols))
			for j, c := range r.cols {
				start := len(backing)
				for _, s := range c {
					if !slices.Contains(backing[start:], s) {
						backing = append(backing, s)
					}
				}
				cols[j] = backing[start:len(backing):len(backing)]
			}
			m.symCols = cols
			return
		}
		seen := make(map[Symbol]bool)
		for j, c := range r.cols {
			clear(seen)
			var out []Symbol
			for _, s := range c {
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
			cols[j] = out
		}
		m.symCols = cols
	})
	return m.symCols
}

// DistinctSymbols returns the distinct symbols of column j in
// first-occurrence order, memoized and shared: callers must treat the slice
// as read-only. Membership scans over it are order-insensitive; callers
// that need deterministic value ordering use DistinctValues.
func (r *Relation) DistinctSymbols(j int) []Symbol {
	return r.distinctSymbols()[j]
}

// distinctValues computes the per-column sorted distinct values exactly
// once, decoding the distinct symbol sets.
func (r *Relation) distinctValues() [][]string {
	m := r.coldMemo()
	m.colsOnce.Do(func() {
		syms := r.distinctSymbols()
		strs := strsSnapshot()
		cols := make([][]string, len(syms))
		for j, c := range syms {
			out := make([]string, len(c))
			for i, s := range c {
				out[i] = strs[s]
			}
			sort.Strings(out)
			cols[j] = out
		}
		m.cols = cols
	})
	return m.cols
}

// DistinctValues returns the distinct values of attribute a in sorted order,
// memoized on the relation. The returned slice is shared — callers must not
// modify it. It returns nil if the attribute does not exist; hot-path
// callers that already validated the attribute use this instead of ValuesOf
// to skip both the error path and the defensive copy.
func (r *Relation) DistinctValues(a string) []string {
	j := r.lookup(a)
	if j < 0 {
		return nil
	}
	return r.distinctValues()[j]
}

// ValuesOf returns the distinct values of attribute a in sorted order.
// The slice is the caller's to keep (it is a copy of the memoized form).
func (r *Relation) ValuesOf(a string) ([]string, error) {
	j := r.lookup(a)
	if j < 0 {
		return nil, fmt.Errorf("relation %s: no attribute %q", r.name, a)
	}
	return append([]string(nil), r.distinctValues()[j]...), nil
}

// Insert returns a copy of the relation with the row added. The copy shares
// the original's column storage; the appends reallocate, so the original is
// unaffected. The duplicate check is one lookup in the memoized row-key set
// — repeated Insert against a growing chain stays linear, not quadratic.
func (r *Relation) Insert(row Tuple) (*Relation, error) {
	if len(row) != len(r.attrs) {
		return nil, fmt.Errorf("relation %s: row arity %d does not match schema arity %d", r.name, len(row), len(r.attrs))
	}
	syms := make([]Symbol, len(row))
	buf := make([]byte, 0, 4*len(row))
	for j, v := range row {
		syms[j] = Intern(v)
		buf = appendSymKey(buf, syms[j])
	}
	out := r.shallowCloneSharedSchema()
	if r.rowSet()[string(buf)] {
		return out, nil
	}
	out.appendRowSyms(syms)
	return out, nil
}

// computeCanonical renders the canonical form from scratch: each row
// rendered as its values in sorted-attribute-name order (length-prefixed,
// so arbitrary value bytes stay unambiguous), rows sorted, plus the full
// fingerprint built from them. Attribute names appear once in the
// fingerprint header, not in every row: both sides of any comparison render
// through the same sorted-name order, so the per-row projection is already
// aligned. The fingerprint prefixes the attribute and row counts, which
// makes the flat concatenation parse deterministically — no sequence of
// (name, attrs, rows) collides with a different one. This function is the
// single source of truth the memo caches; tests call it directly to
// cross-check memoized values, and the differential suite checks the
// columnar hash agrees with it on equality.
func (r *Relation) computeCanonical() (rows []string, fp string) {
	strs := strsSnapshot()
	order := r.sortedAttrOrder()
	names := make([]string, len(order))
	for i, j := range order {
		names[i] = r.attrs[j]
	}
	rows = make([]string, r.nrows)
	var buf []byte
	for i := 0; i < r.nrows; i++ {
		buf = buf[:0]
		for _, j := range order {
			buf = appendValueKey(buf, strs[r.cols[j][i]])
		}
		rows[i] = string(buf)
	}
	sort.Strings(rows)
	fpBuf := make([]byte, 0, 64+16*len(names)+32*len(rows))
	fpBuf = appendValueKey(fpBuf, r.name)
	fpBuf = strconv.AppendInt(fpBuf, int64(len(names)), 10)
	fpBuf = append(fpBuf, ';')
	for _, a := range names {
		fpBuf = appendValueKey(fpBuf, a)
	}
	fpBuf = strconv.AppendInt(fpBuf, int64(len(rows)), 10)
	fpBuf = append(fpBuf, ';')
	for _, row := range rows {
		fpBuf = appendValueKey(fpBuf, row)
	}
	return rows, string(fpBuf)
}

// canonicalize computes the canonical string form exactly once and returns
// the cold memo holding it. Safe for concurrent callers: concurrent
// discoveries fingerprinting states that share this relation synchronize on
// the memo's sync.Once.
func (r *Relation) canonicalize() *coldMemo {
	m := r.coldMemo()
	m.canonOnce.Do(func() {
		m.rows, m.fp = r.computeCanonical()
	})
	return m
}

// canonicalRows returns the memoized canonical row rendering; used for
// order-insensitive comparison.
func (r *Relation) canonicalRows() []string {
	return r.canonicalize().rows
}

// Equal reports semantic equality: same name, same attribute set (order
// insensitive), same set of tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r == s {
		return true
	}
	if r.name != s.name || len(r.attrs) != len(s.attrs) || r.nrows != s.nrows {
		return false
	}
	for _, a := range r.attrs {
		if !s.HasAttr(a) {
			return false
		}
	}
	rc, sc := r.canonicalRows(), s.canonicalRows()
	for i := range rc {
		if rc[i] != sc[i] {
			return false
		}
	}
	return true
}

// Contains reports whether r is a structurally identical superset of s
// restricted to s's attributes: r has every attribute of s, and every tuple
// of s agrees with some tuple of r on s's attributes. This is the
// per-relation half of the paper's goal test (§2.3), kept as the
// nested-loop reference implementation the ContainmentIndex is
// cross-checked against. Symbol comparison is string comparison: equal
// strings intern to equal symbols.
func (r *Relation) Contains(s *Relation) bool {
	idx := make([]int, len(s.attrs))
	for i, a := range s.attrs {
		j := r.lookup(a)
		if j < 0 {
			return false
		}
		idx[i] = j
	}
	for si := 0; si < s.nrows; si++ {
		found := false
		for ri := 0; ri < r.nrows; ri++ {
			match := true
			for i, j := range idx {
				if r.cols[j][ri] != s.cols[i][si] {
					match = false
					break
				}
			}
			if match {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Fingerprint returns a canonical string identifying the relation up to
// attribute order and tuple order. It is memoized: the first call renders
// the canonical form, every later call returns the cached string, so a
// search successor that shares this relation copy-on-write pays nothing to
// re-identify it.
func (r *Relation) Fingerprint() string {
	return r.canonicalize().fp
}

// sortedAttrOrder returns the attribute positions in sorted-attribute-name
// order — the column order every canonical rendering (fingerprint, hash)
// shares, so projections of both sides of any comparison align.
func (r *Relation) sortedAttrOrder() []int {
	_, ords, strs := hashSnapshot()
	n := len(r.attrSyms)
	return sortAttrs(make([]int, 0, n), make([]uint64, 0, n), r.attrSyms, ords, strs)
}

// attrOrder returns the attribute positions in sorted-name order, computed
// once and memoized: the child previews, which run on every expansion of a
// state, derive each child's order from it in one pass. Only the previews
// call it, and they decline past hashStackMax attributes, so a position
// fits a byte.
func (r *Relation) attrOrder() []uint8 {
	m := &r.memo
	m.orderOnce.Do(func() {
		_, ords, strs := hashSnapshot()
		var posArr [hashStackMax]int
		var keyArr [hashStackMax]uint64
		order := new([hashStackMax]uint8)
		for k, j := range sortAttrs(posArr[:0], keyArr[:0], r.attrSyms, ords, strs) {
			order[k] = uint8(j)
		}
		m.order = order
	})
	return m.order[:len(r.attrSyms)]
}

// sortAttrs appends to pos the positions of attrSyms in their strings'
// order, loading each symbol's order key once into keys, which moves in
// step with pos. The keys decide unless two tie, and then the strings do:
// exactly the string order (see ordKey), the rule SymbolOrder applies to
// cells. Insertion sort: schemas are narrow, and this runs once per
// relation hashed, so hot callers back pos and keys with stack arrays.
// Attribute names are unique, so no two positions compare equal.
func sortAttrs(pos []int, keys []uint64, attrSyms []Symbol, ords []uint64, strs []string) []int {
	for k, s := range attrSyms {
		pos = append(pos, k)
		keys = append(keys, ords[s])
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0; j-- {
			if keys[j] > keys[j-1] || keys[j] == keys[j-1] && strs[attrSyms[pos[j]]] >= strs[attrSyms[pos[j-1]]] {
				break
			}
			keys[j], keys[j-1] = keys[j-1], keys[j]
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	return pos
}

// hash-lane constants, shared with digest128.
const (
	hashK0 = 0x9e3779b97f4a7c15 // golden-ratio odd constant
	hashK1 = 0xbf58476d1ce4e5b9 // splitmix64 multiplier
)

// hashStackMax is the widest schema and the longest relation whose hash
// scratch (attribute order, row signatures) lives on the stack. Hash heap-
// allocates beyond it; the child-hash previews decline beyond it.
const hashStackMax = 32

// Hash returns a 128-bit digest of the relation's canonical identity,
// memoized. Equal relations have equal hashes; distinct relations collide
// with negligible probability — see the collision argument in DESIGN.md
// ("State identity" and §12).
//
// The digest is assembled entirely from fixed-width words: every interned
// symbol carries a 128-bit content signature (digest128 of its string,
// computed once at interning time), and the relation hash mixes the name
// signature, the attribute signatures in sorted-name order, and one
// signature per row — itself a mix of the row's cell signatures in
// sorted-attribute order — with row signatures sorted so the result is
// row-order invariant. Counts are absorbed as their own words, so schema
// and data cannot alias. Because cell signatures depend only on string
// content, the hash is deterministic across processes and independent of
// interning order, exactly like the byte-encoding digest it replaced — but
// it never touches a string: hashing is ~4 multiply-xor mixes per cell.
func (r *Relation) Hash() [16]byte {
	m := &r.memo
	m.hashOnce.Do(func() {
		sigs, ords, strs := hashSnapshot()
		var posArr [hashStackMax]int
		var keyArr [hashStackMax]uint64
		pos, keys := posArr[:0], keyArr[:0]
		if len(r.attrSyms) > hashStackMax {
			pos, keys = make([]int, 0, len(r.attrSyms)), make([]uint64, 0, len(r.attrSyms))
		}
		pos = sortAttrs(pos, keys, r.attrSyms, ords, strs)
		m.hash = hashCore(sigs, r.nameSym, r.attrSyms, r.cols, pos, r.nrows, nil)
	})
	return m.hash
}

// hashCore is the relation hash behind Hash and the child-hash previews
// (preview.go): the digest of a relation named nameSym whose attributes, in
// sorted-name order, are attrSyms at the positions pos, whose column for
// position k is cols[k], and whose rows are the positions keep of those
// columns — all nrows rows when keep is nil. It reads nothing else, so a
// preview hands it a parent's columns under the child's schema and order.
// sigs is the dictionary's signature table (hashSnapshot). Up to
// hashStackMax rows, the row signatures live on the stack.
func hashCore(sigs []sigPair, nameSym Symbol, attrSyms []Symbol, cols [][]Symbol, pos []int, nrows int, keep []int) [16]byte {
	h0 := mix64(uint64(len(pos)+1) * hashK0)
	h1 := mix64(uint64(len(pos)+2) * hashK1)
	absorb := func(x uint64) {
		h0 = mix64(h0 ^ (x * hashK1))
		h1 = mix64(h1 ^ (x * hashK0))
	}
	ns := sigs[nameSym]
	absorb(ns.lo)
	absorb(ns.hi)
	for _, k := range pos {
		as := sigs[attrSyms[k]]
		absorb(as.lo)
		absorb(as.hi)
	}
	if keep != nil {
		nrows = len(keep)
	}
	absorb(uint64(nrows))
	// One signature per row: chain the cell signatures in sorted-attr
	// order, then sort the row signatures for permutation invariance (rows
	// are deduplicated; equal signatures mean — up to a collision — equal
	// rows, so ordering ties is immaterial). Insertion sort: successor
	// states mutate tiny critical instances.
	var rowSigArr [hashStackMax]sigPair
	rowSigs := rowSigArr[:0]
	if nrows > hashStackMax {
		rowSigs = make([]sigPair, 0, nrows)
	}
	for t := 0; t < nrows; t++ {
		i := t
		if keep != nil {
			i = keep[t]
		}
		s0 := mix64(uint64(len(pos)+1) * hashK0)
		s1 := mix64(uint64(len(pos)+2) * hashK1)
		for _, k := range pos {
			cs := sigs[cols[k][i]]
			s0 = mix64(s0 ^ (cs.lo * hashK1))
			s1 = mix64(s1 ^ (cs.lo * hashK0))
			s0 = mix64(s0 ^ (cs.hi * hashK1))
			s1 = mix64(s1 ^ (cs.hi * hashK0))
		}
		rowSigs = append(rowSigs, sigPair{lo: s0, hi: s1})
	}
	for i := 1; i < len(rowSigs); i++ {
		for j := i; j > 0 && sigLess(rowSigs[j], rowSigs[j-1]); j-- {
			rowSigs[j], rowSigs[j-1] = rowSigs[j-1], rowSigs[j]
		}
	}
	for _, rs := range rowSigs {
		absorb(rs.lo)
		absorb(rs.hi)
	}
	// Cross the lanes once so each output half depends on every input.
	h0, h1 = mix64(h0^h1), mix64(h1+h0)
	var out [16]byte
	putLeUint64(out[0:8], h0)
	putLeUint64(out[8:16], h1)
	return out
}

// sigLess orders signature pairs lexicographically; the canonical row order
// behind Hash.
func sigLess(a, b sigPair) bool {
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.hi < b.hi
}
