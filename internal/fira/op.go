// Package fira implements the transformation language L of "Data Mapping as
// Search" (EDBT 2006, §2.1, Table 1), a fragment of the Federated
// Interoperable Relational Algebra (FIRA, Wyss & Robertson 2005) extended
// with the λ operator for complex semantic functions (§4).
//
// The operators perform dynamic data–metadata restructuring:
//
//	→B_A   dereference column A into a new column B
//	↑A_B   promote the values of column A to attribute names carrying B's values
//	↓      demote metadata (product with the relation's metadata table)
//	℘A     partition a relation into one relation per value of column A
//	×      cartesian product
//	π̄A     drop column A
//	µA     merge tuples with compatible values on column A
//	ρ      rename an attribute or a relation (schema matching)
//	λB_f,Ā apply complex function f to columns Ā, producing column B
//
// Absent values that arise during restructuring (e.g. after ↑) are
// represented by the empty string; µ merges tuples whose non-absent values
// agree. An Expr is a sequence of operators; evaluating it against a source
// database yields the mapped database. Expressions print in a stable
// textual form that Parse reads back.
package fira

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tupelo/internal/lambda"
	"tupelo/internal/relation"
)

// Op is a single transformation operator of the language L.
type Op interface {
	// Apply evaluates the operator against a database, returning a new
	// database. The input is never mutated. The registry resolves λ
	// functions and may be nil for expressions without λ.
	Apply(db *relation.Database, reg *lambda.Registry) (*relation.Database, error)
	// String renders the operator in the canonical textual syntax
	// understood by Parse.
	String() string
	// Pretty renders the operator in notation close to the paper's.
	Pretty() string
}

// relOf returns the named relation or an error mentioning the operator.
func relOf(db *relation.Database, name, op string) (*relation.Relation, error) {
	r, ok := db.Relation(name)
	if !ok {
		return nil, fmt.Errorf("fira: %s: no relation %q", op, name)
	}
	return r, nil
}

// RenameRel is ρ^rel_{From→To}: rename relation From to To.
type RenameRel struct {
	From, To string
}

// Apply implements Op.
func (o RenameRel) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.From, "rename_rel")
	if err != nil {
		return nil, err
	}
	if o.To == o.From {
		return nil, fmt.Errorf("fira: rename_rel: %q to itself", o.From)
	}
	if _, clash := db.Relation(o.To); clash {
		return nil, fmt.Errorf("fira: rename_rel: relation %q already exists", o.To)
	}
	renamed, err := r.WithName(o.To)
	if err != nil {
		return nil, fmt.Errorf("fira: rename_rel: %v", err)
	}
	out, _, err := db.ReplaceRelation(o.From, renamed)
	return out, err
}

func (o RenameRel) String() string { return fmt.Sprintf("rename_rel[%s->%s]", o.From, o.To) }
func (o RenameRel) Pretty() string { return fmt.Sprintf("ρ^rel_{%s→%s}", o.From, o.To) }

// RenameAtt is ρ^att_{From→To}(Rel): rename attribute From to To in Rel.
type RenameAtt struct {
	Rel, From, To string
}

// Apply implements Op.
func (o RenameAtt) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "rename_att")
	if err != nil {
		return nil, err
	}
	renamed, err := r.WithAttrRenamed(o.From, o.To)
	if err != nil {
		return nil, fmt.Errorf("fira: rename_att: %v", err)
	}
	return db.WithRelation(renamed), nil
}

// ChildKey previews Apply without building the child: it returns the key
// the child database would have (its Key's bytes) and the previewed hash of
// the renamed relation, for relation.Relation.SeedHash once the child is
// built, carrying what the preview resolved, from which
// relation.ChildHash.Fragment derives the child's fragment. It resolves the
// relation, the attribute and the new name once each. It declines (ok is
// false) whenever Apply would fail, and also where the relation and
// database previews decline (DESIGN.md §8); the caller then applies the
// operator.
func (o RenameAtt) ChildKey(db *relation.Database) (key [16]byte, h relation.ChildHash, ok bool) {
	r, found := db.Relation(o.Rel)
	if !found {
		return key, h, false
	}
	if h, ok = r.RenamedHash(o.From, o.To); !ok {
		return key, h, false
	}
	key, ok = db.KeyWith(h)
	return key, h, ok
}

func (o RenameAtt) String() string {
	return fmt.Sprintf("rename_att[%s,%s->%s]", o.Rel, o.From, o.To)
}
func (o RenameAtt) Pretty() string { return fmt.Sprintf("ρ^att_{%s→%s}(%s)", o.From, o.To, o.Rel) }

// Drop is π̄_Attr(Rel): drop column Attr from Rel.
type Drop struct {
	Rel, Attr string
}

// Apply implements Op.
func (o Drop) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "drop")
	if err != nil {
		return nil, err
	}
	dropped, err := r.WithoutAttr(o.Attr)
	if err != nil {
		return nil, fmt.Errorf("fira: drop: %v", err)
	}
	return db.WithRelation(dropped), nil
}

// ChildKey previews Apply without building the child, as
// RenameAtt.ChildKey does: the child database's key and the previewed hash
// of the relation with Attr dropped, or ok false whenever Apply would fail
// or a preview declines.
func (o Drop) ChildKey(db *relation.Database) (key [16]byte, h relation.ChildHash, ok bool) {
	r, found := db.Relation(o.Rel)
	if !found {
		return key, h, false
	}
	if h, ok = r.DroppedHash(o.Attr); !ok {
		return key, h, false
	}
	key, ok = db.KeyWith(h)
	return key, h, ok
}

func (o Drop) String() string { return fmt.Sprintf("drop[%s,%s]", o.Rel, o.Attr) }
func (o Drop) Pretty() string { return fmt.Sprintf("π̄_{%s}(%s)", o.Attr, o.Rel) }

// Promote is ↑^ValueAttr_NameAttr(Rel), Table 1's "Promote Column A to
// Metadata": for every tuple t, append a new column named t[NameAttr] with
// value t[ValueAttr]. Tuples receive the empty string in promoted columns
// created by other tuples.
type Promote struct {
	Rel       string
	NameAttr  string // the column whose values become attribute names (A)
	ValueAttr string // the column supplying the values (B)
}

// Apply implements Op.
func (o Promote) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "promote")
	if err != nil {
		return nil, err
	}
	if !r.HasAttr(o.NameAttr) {
		return nil, fmt.Errorf("fira: promote: %s has no attribute %q", o.Rel, o.NameAttr)
	}
	if !r.HasAttr(o.ValueAttr) {
		return nil, fmt.Errorf("fira: promote: %s has no attribute %q", o.Rel, o.ValueAttr)
	}
	names, err := r.ValuesOf(o.NameAttr)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("fira: promote: empty value in name column %q", o.NameAttr)
		}
		if r.HasAttr(n) {
			return nil, fmt.Errorf("fira: promote: value %q collides with an existing attribute of %s", n, o.Rel)
		}
	}
	// The new columns are gathers over the name and value symbol columns:
	// row i of column n carries the value cell where the name cell equals n,
	// the absent marker elsewhere. Attribute creation stays in sorted string
	// order (names above), so schema order is unchanged from the string path.
	nameCol := r.Column(r.AttrIndex(o.NameAttr))
	valCol := r.Column(r.AttrIndex(o.ValueAttr))
	empty := relation.EmptySymbol()
	out := r
	for _, n := range names {
		nSym, ok := relation.LookupSymbol(n)
		if !ok {
			return nil, fmt.Errorf("fira: promote: value %q vanished from the dictionary", n)
		}
		col := make([]relation.Symbol, len(nameCol))
		for i, s := range nameCol {
			if s == nSym {
				col[i] = valCol[i]
			} else {
				col[i] = empty
			}
		}
		out, err = out.WithColumnSyms(n, col)
		if err != nil {
			return nil, fmt.Errorf("fira: promote: %v", err)
		}
	}
	return db.WithRelation(out), nil
}

func (o Promote) String() string {
	return fmt.Sprintf("promote[%s,%s,%s]", o.Rel, o.NameAttr, o.ValueAttr)
}
func (o Promote) Pretty() string {
	return fmt.Sprintf("↑^{%s}_{%s}(%s)", o.ValueAttr, o.NameAttr, o.Rel)
}

// DemoteRelCol and DemoteAttCol are the reserved column names introduced by
// ↓. They can be renamed afterwards with ρ^att.
const (
	DemoteRelCol = "_REL"
	DemoteAttCol = "_ATT"
)

// Demote is ↓(Rel), Table 1's "Demote Metadata": the cartesian product of
// Rel with a binary table containing Rel's metadata — one (relation name,
// attribute name) row per attribute. The metadata lands in the reserved
// columns _REL and _ATT; combined with → (dereference) this moves attribute
// names and their values back into data, the inverse direction of ↑.
type Demote struct {
	Rel string
}

// Apply implements Op.
func (o Demote) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "demote")
	if err != nil {
		return nil, err
	}
	if r.HasAttr(DemoteRelCol) || r.HasAttr(DemoteAttCol) {
		return nil, fmt.Errorf("fira: demote: %s already has a %s or %s column", o.Rel, DemoteRelCol, DemoteAttCol)
	}
	if r.Arity() == 0 {
		return nil, fmt.Errorf("fira: demote: %s has no attributes", o.Rel)
	}
	// Column splice: output row (i, k) is input row i extended with
	// (o.Rel, attrs[k]), in the same (row-major, then attribute) order the
	// row-at-a-time construction produced. Distinct input rows extended with
	// distinct attribute tags cannot collide, so no deduplication runs.
	arity, n := r.Arity(), r.Len()
	total := n * arity
	attrSyms := r.AttrSymbols()
	cols := make([][]relation.Symbol, arity+2)
	for j := 0; j < arity; j++ {
		src := r.Column(j)
		c := make([]relation.Symbol, 0, total)
		for i := 0; i < n; i++ {
			v := src[i]
			for k := 0; k < arity; k++ {
				c = append(c, v)
			}
		}
		cols[j] = c
	}
	relSym := r.NameSymbol()
	relCol := make([]relation.Symbol, total)
	for i := range relCol {
		relCol[i] = relSym
	}
	attCol := make([]relation.Symbol, 0, total)
	for i := 0; i < n; i++ {
		attCol = append(attCol, attrSyms...)
	}
	cols[arity], cols[arity+1] = relCol, attCol
	out, err := relation.NewFromColumns(o.Rel, append(r.Attrs(), DemoteRelCol, DemoteAttCol), cols, total)
	if err != nil {
		return nil, err
	}
	return db.WithRelation(out), nil
}

func (o Demote) String() string { return fmt.Sprintf("demote[%s]", o.Rel) }
func (o Demote) Pretty() string { return fmt.Sprintf("↓(%s)", o.Rel) }

// Deref is →^NewAttr_PtrAttr(Rel), Table 1's "Dereference Column A on B":
// for every tuple t, append a new column NewAttr with value t[t[PtrAttr]] —
// the value of the attribute *named by* t's PtrAttr value.
type Deref struct {
	Rel     string
	PtrAttr string // column A whose values name attributes
	NewAttr string // new column B receiving the dereferenced values
}

// Apply implements Op.
func (o Deref) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "deref")
	if err != nil {
		return nil, err
	}
	pj := r.AttrIndex(o.PtrAttr)
	if pj < 0 {
		return nil, fmt.Errorf("fira: deref: %s has no attribute %q", o.Rel, o.PtrAttr)
	}
	// A pointer cell names an attribute iff its symbol equals that
	// attribute's symbol (equal strings intern identically), so the
	// indirection resolves in symbol space.
	ptrCol := r.Column(pj)
	attrSyms := r.AttrSymbols()
	col := make([]relation.Symbol, r.Len())
	for i, p := range ptrCol {
		aj := -1
		for j, a := range attrSyms {
			if a == p {
				aj = j
				break
			}
		}
		if aj < 0 {
			return nil, fmt.Errorf("fira: deref: tuple %d of %s points at %q, which is not an attribute", i, o.Rel, p.String())
		}
		col[i] = r.Column(aj)[i]
	}
	out, err := r.WithColumnSyms(o.NewAttr, col)
	if err != nil {
		return nil, fmt.Errorf("fira: deref: %v", err)
	}
	return db.WithRelation(out), nil
}

func (o Deref) String() string {
	return fmt.Sprintf("deref[%s,%s->%s]", o.Rel, o.PtrAttr, o.NewAttr)
}
func (o Deref) Pretty() string {
	return fmt.Sprintf("→^{%s}_{%s}(%s)", o.NewAttr, o.PtrAttr, o.Rel)
}

// Partition is ℘_Attr(Rel): for each value v of column Attr, create a new
// relation named v holding the tuples with t[Attr] = v. The input relation
// is consumed (removed from the database), matching FIRA's semantics of
// restructuring a relation into a set of relations.
type Partition struct {
	Rel, Attr string
}

// Apply implements Op.
func (o Partition) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "partition")
	if err != nil {
		return nil, err
	}
	values, err := r.ValuesOf(o.Attr)
	if err != nil {
		return nil, fmt.Errorf("fira: partition: %v", err)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("fira: partition: %s is empty", o.Rel)
	}
	rest := db.WithoutRelation(o.Rel)
	for _, v := range values {
		if v == "" {
			return nil, fmt.Errorf("fira: partition: empty value in column %q", o.Attr)
		}
		if _, clash := rest.Relation(v); clash {
			return nil, fmt.Errorf("fira: partition: relation %q already exists", v)
		}
	}
	// One pass over the partition column groups the row indices; each part
	// is then an index-gather over the symbol columns — subsets of distinct
	// rows stay distinct, so no deduplication runs. Parts are created in
	// sorted value order, as the string path did.
	keyCol := r.Column(r.AttrIndex(o.Attr))
	bySym := make(map[relation.Symbol][]int, len(values))
	for i, s := range keyCol {
		bySym[s] = append(bySym[s], i)
	}
	attrs := r.Attrs()
	arity := r.Arity()
	for _, v := range values {
		sym, ok := relation.LookupSymbol(v)
		if !ok {
			return nil, fmt.Errorf("fira: partition: value %q vanished from the dictionary", v)
		}
		idxs := bySym[sym]
		cols := make([][]relation.Symbol, arity)
		for j := 0; j < arity; j++ {
			src := r.Column(j)
			c := make([]relation.Symbol, len(idxs))
			for k, i := range idxs {
				c[k] = src[i]
			}
			cols[j] = c
		}
		part, err := relation.NewFromColumns(v, attrs, cols, len(idxs))
		if err != nil {
			return nil, err
		}
		rest = rest.WithRelation(part)
	}
	return rest, nil
}

func (o Partition) String() string { return fmt.Sprintf("partition[%s,%s]", o.Rel, o.Attr) }
func (o Partition) Pretty() string { return fmt.Sprintf("℘_{%s}(%s)", o.Attr, o.Rel) }

// Product is ×(Left, Right): the cartesian product of two relations. The
// result replaces Left (keeping its name); Right is untouched. Attribute
// sets must be disjoint.
type Product struct {
	Left, Right string
}

// Apply implements Op.
func (o Product) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	l, err := relOf(db, o.Left, "product")
	if err != nil {
		return nil, err
	}
	r, err := relOf(db, o.Right, "product")
	if err != nil {
		return nil, err
	}
	if o.Left == o.Right {
		return nil, fmt.Errorf("fira: product: %q with itself", o.Left)
	}
	for _, a := range r.Attrs() {
		if l.HasAttr(a) {
			return nil, fmt.Errorf("fira: product: attribute %q appears in both %s and %s", a, o.Left, o.Right)
		}
	}
	// Column splice in (left row, right row) order: left columns repeat each
	// value |r| times, right columns tile |l| times. Distinct × distinct
	// pairs concatenate to distinct rows, so no deduplication runs. (The
	// degenerate zero-arity × zero-arity case stays within that invariant:
	// such relations hold at most one empty tuple each.)
	ln, rn := l.Len(), r.Len()
	total := ln * rn
	la, ra := l.Arity(), r.Arity()
	cols := make([][]relation.Symbol, la+ra)
	for j := 0; j < la; j++ {
		src := l.Column(j)
		c := make([]relation.Symbol, 0, total)
		for i := 0; i < ln; i++ {
			v := src[i]
			for k := 0; k < rn; k++ {
				c = append(c, v)
			}
		}
		cols[j] = c
	}
	for j := 0; j < ra; j++ {
		src := r.Column(j)
		c := make([]relation.Symbol, 0, total)
		for i := 0; i < ln; i++ {
			c = append(c, src...)
		}
		cols[la+j] = c
	}
	out, err := relation.NewFromColumns(o.Left, append(l.Attrs(), r.Attrs()...), cols, total)
	if err != nil {
		return nil, err
	}
	return db.WithRelation(out), nil
}

func (o Product) String() string { return fmt.Sprintf("product[%s,%s]", o.Left, o.Right) }
func (o Product) Pretty() string { return fmt.Sprintf("×(%s,%s)", o.Left, o.Right) }

// Merge is µ_Attr(Rel) (Table 1; Wyss & Robertson's PIVOT/UNPIVOT merge):
// repeatedly coalesce pairs of tuples that share the value of column Attr
// and are compatible elsewhere — on every other attribute their values are
// equal or at least one is absent (empty). The coalesced tuple takes the
// non-absent value at each position. Merging runs to fixpoint and is
// deterministic (tuples are processed in canonical order). When no two
// tuples of a group are compatible, µ is the identity and Apply returns its
// input database itself.
type Merge struct {
	Rel, Attr string
}

// Apply implements Op.
func (o Merge) Apply(db *relation.Database, _ *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "merge")
	if err != nil {
		return nil, err
	}
	j := r.AttrIndex(o.Attr)
	if j < 0 {
		return nil, fmt.Errorf("fira: merge: %s has no attribute %q", o.Rel, o.Attr)
	}
	if !mergeable(r, j) {
		return db, nil
	}
	return o.rebuild(db, r, j)
}

// mergeable reports whether µ on column j coalesces anything: whether two
// tuples that agree on column j are compatible. The check is exact. Tuples
// are distinct, so a compatible pair differs only where one side is absent
// and always coalesces, leaving the fixpoint with fewer tuples; without one,
// every group already is a fixpoint and µ is the identity. It sorts a row
// permutation by the column-j symbol, which only brings each group
// together, and compares the pairs within each group on the symbol columns.
func mergeable(r *relation.Relation, j int) bool {
	n := r.Len()
	if n < 2 {
		return false
	}
	key := r.Column(j)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
	empty := relation.EmptySymbol()
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && key[perm[hi]] == key[perm[lo]] {
			hi++
		}
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				if compatible(r, perm[a], perm[b], empty) {
					return true
				}
			}
		}
		lo = hi
	}
	return false
}

// compatible reports whether rows a and b of r agree at every column or
// have an absent value where they differ — the condition under which
// coalesce merges them.
func compatible(r *relation.Relation, a, b int32, empty relation.Symbol) bool {
	for c := 0; c < r.Arity(); c++ {
		col := r.Column(c)
		if x, y := col[a], col[b]; x != y && x != empty && y != empty {
			return false
		}
	}
	return true
}

// rebuild evaluates µ on column j of r by sorting, grouping and coalescing
// every group to fixpoint, and returns db with r replaced by the result.
// It works in symbol space. The rows are copied once into one n × arity
// array and sorted by the merge column, then by every column in schema
// order, comparing in string order (relation.SymbolOrder): symbol numbering
// depends on interning order, so comparing raw symbols would make the
// fixpoint's result run-dependent. A group is a run of equal merge-column
// symbols. The result needs no deduplication: the rows of a fixpoint are
// pairwise incompatible, hence distinct, and rows of different groups
// differ on the merge column.
func (o Merge) rebuild(db *relation.Database, r *relation.Relation, j int) (*relation.Database, error) {
	n, arity := r.Len(), r.Arity()
	cells := make([]relation.Symbol, n*arity)
	rows := make([][]relation.Symbol, n)
	for i := range rows {
		rows[i] = cells[i*arity : (i+1)*arity : (i+1)*arity]
	}
	for c := 0; c < arity; c++ {
		for i, s := range r.Column(c) {
			cells[i*arity+c] = s
		}
	}
	order := relation.SymbolOrder()
	slices.SortFunc(rows, func(a, b []relation.Symbol) int {
		if c := order(a[j], b[j]); c != 0 {
			return c
		}
		for k := range a {
			if c := order(a[k], b[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	empty := relation.EmptySymbol()
	out := rows[:0]
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && rows[hi][j] == rows[lo][j] {
			hi++
		}
		// mergeGroup leaves its fixpoint in a prefix of the group, and out
		// never runs ahead of lo, so the append moves rows down in place.
		out = append(out, mergeGroup(rows[lo:hi], empty)...)
		lo = hi
	}
	m := len(out)
	backing := make([]relation.Symbol, m*arity)
	cols := make([][]relation.Symbol, arity)
	for c := range cols {
		col := backing[c*m : (c+1)*m : (c+1)*m]
		for i, row := range out {
			col[i] = row[c]
		}
		cols[c] = col
	}
	merged, err := relation.NewFromColumns(o.Rel, r.AttrView(), cols, m)
	if err != nil {
		return nil, err
	}
	return db.WithRelation(merged), nil
}

// mergeGroup coalesces compatible tuples within one merge group to fixpoint,
// in place: the rows are slices of rebuild's own row array.
func mergeGroup(rows [][]relation.Symbol, empty relation.Symbol) [][]relation.Symbol {
	changed := true
	for changed {
		changed = false
	outer:
		for i := 0; i < len(rows); i++ {
			for k := i + 1; k < len(rows); k++ {
				if coalesce(rows[i], rows[k], empty) {
					rows = append(rows[:k], rows[k+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	return rows
}

// coalesce merges tuple b into tuple a if they are compatible — at every
// position the values are equal or at least one is absent (the empty-string
// symbol) — by filling a's absent cells from b, and reports whether it did.
// An incompatible pair leaves a untouched.
func coalesce(a, b []relation.Symbol, empty relation.Symbol) bool {
	for i := range a {
		if a[i] != b[i] && a[i] != empty && b[i] != empty {
			return false
		}
	}
	for i := range a {
		if a[i] == empty {
			a[i] = b[i]
		}
	}
	return true
}

func (o Merge) String() string { return fmt.Sprintf("merge[%s,%s]", o.Rel, o.Attr) }
func (o Merge) Pretty() string { return fmt.Sprintf("µ_{%s}(%s)", o.Attr, o.Rel) }

// Apply is λ^Out_{Func,In}(Rel) (§4): for every tuple, apply the registered
// complex function Func to the values of the In attributes and store the
// result in the new attribute Out. Following the paper's semantics — "the
// operator is well defined for any tuple T of appropriate schema (and is
// the identity mapping on T otherwise)" — a tuple on which the function
// fails (e.g. a non-numeric value reaching an arithmetic function after
// metadata demotion) receives the absent value instead of aborting the
// mapping. Structural errors (missing relation or attributes, unknown
// function, arity mismatch) still fail the operator.
type Apply struct {
	Rel  string
	Func string
	In   []string
	Out  string
}

// Apply implements Op.
func (o Apply) Apply(db *relation.Database, reg *lambda.Registry) (*relation.Database, error) {
	r, err := relOf(db, o.Rel, "apply")
	if err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("fira: apply: no function registry supplied for %s", o.Func)
	}
	f, ok := reg.Lookup(o.Func)
	if !ok {
		return nil, fmt.Errorf("fira: apply: unknown function %q", o.Func)
	}
	if f.Arity != len(o.In) {
		return nil, fmt.Errorf("fira: apply: %s has arity %d, got %d inputs", o.Func, f.Arity, len(o.In))
	}
	for _, a := range o.In {
		if !r.HasAttr(a) {
			return nil, fmt.Errorf("fira: apply: %s has no attribute %q", o.Rel, a)
		}
	}
	col := make([]string, r.Len())
	args := make([]string, len(o.In))
	for i := 0; i < r.Len(); i++ {
		for k, a := range o.In {
			args[k], _ = r.Value(i, a)
		}
		v, err := f.Call(args)
		if err != nil {
			// Identity on tuples the function is undefined for (§4): the
			// new column holds the absent value for this tuple.
			col[i] = ""
			continue
		}
		col[i] = v
	}
	out, err := r.WithColumn(o.Out, col)
	if err != nil {
		return nil, fmt.Errorf("fira: apply: %v", err)
	}
	return db.WithRelation(out), nil
}

func (o Apply) String() string {
	return fmt.Sprintf("apply[%s,%s:%s->%s]", o.Rel, o.Func, strings.Join(o.In, ","), o.Out)
}
func (o Apply) Pretty() string {
	return fmt.Sprintf("λ^{%s}_{%s,⟨%s⟩}(%s)", o.Out, o.Func, strings.Join(o.In, ","), o.Rel)
}
