package relation

import "sort"

// Role is a bit mask of the TNF projections (§3) a token occupies in a
// database: a relation name (REL), an attribute name (ATT) or a non-empty
// cell value (VALUE). One token may hold several roles.
type Role uint8

const (
	RoleRel Role = 1 << iota // a relation name
	RoleAtt                  // an attribute name
	RoleVal                  // a non-empty cell value
)

// TargetIndex is everything a mapping search reads of its target critical
// instance, derived once per database (Database.TargetIndex) and immutable
// afterwards, so every problem, heuristic and portfolio member over one
// target shares it. The move generators instantiate and prune moves from
// its names, roles and rename evidence (§2.3), the heuristics compare a
// state's REL/ATT/VALUE projections with its roles and its fragments (§3),
// and the goal test probes its containment index. Every map and slice it
// returns is shared: callers must treat them as read-only.
type TargetIndex struct {
	// roles holds every token of the target's TNF projections with its
	// roles, exactly the projections tnf.Encode gives: the empty symbol
	// holds none.
	roles map[Symbol]Role
	// emptyCell records whether some target cell is empty: the empty symbol
	// is then a cell value (HoldsValue) though in no VALUE projection.
	emptyCell bool
	// rels and attrs are the relation and attribute names in sorted order,
	// the order moves over them are proposed in.
	rels, attrs []string
	// relVals and attrVals hold, per relation and per attribute name, the
	// symbols of the target's cells under it, the empty one included: the
	// evidence a rename to that name needs.
	relVals, attrVals map[string]map[Symbol]bool
	// frags holds each target relation's TNF fragment by name symbol.
	frags map[Symbol]*Fragment
	// contain is the goal test's accelerator.
	contain *ContainmentIndex
}

// newTargetIndex derives the index of db.
func newTargetIndex(db *Database) *TargetIndex {
	ix := &TargetIndex{
		roles:    make(map[Symbol]Role),
		rels:     db.Names(),
		relVals:  make(map[string]map[Symbol]bool, len(db.rels)),
		attrVals: make(map[string]map[Symbol]bool),
		frags:    make(map[Symbol]*Fragment, len(db.rels)),
		contain:  NewContainmentIndex(db),
	}
	for _, r := range db.rels {
		f := r.TNFFragment()
		ix.frags[r.nameSym] = f
		ix.roles[r.nameSym] |= RoleRel
		for _, e := range f.Atts {
			ix.roles[e.Sym] |= RoleAtt
		}
		for _, e := range f.Vals {
			ix.roles[e.Sym] |= RoleVal
		}
		rv := make(map[Symbol]bool)
		for j, a := range r.attrs {
			av := ix.attrVals[a]
			if av == nil {
				av = make(map[Symbol]bool)
				ix.attrVals[a] = av
				ix.attrs = append(ix.attrs, a)
			}
			for _, s := range r.DistinctSymbols(j) {
				av[s], rv[s] = true, true
				ix.emptyCell = ix.emptyCell || s == emptySym
			}
		}
		ix.relVals[r.name] = rv
	}
	sort.Strings(ix.attrs)
	return ix
}

// Has reports whether token s holds some role of mask in the target.
func (ix *TargetIndex) Has(s Symbol, mask Role) bool { return ix.roles[s]&mask != 0 }

// Roles returns every token of the target's projections with its roles.
func (ix *TargetIndex) Roles() map[Symbol]Role { return ix.roles }

// HoldsValue reports whether s is the value of some target cell: a VALUE
// token, or the empty symbol when a target cell is empty. It is membership
// in Database.ValueSet, by symbol.
func (ix *TargetIndex) HoldsValue(s Symbol) bool {
	return ix.Has(s, RoleVal) || s == emptySym && ix.emptyCell
}

// SortedRels returns the target's relation names in sorted order.
func (ix *TargetIndex) SortedRels() []string { return ix.rels }

// SortedAttrs returns the target's attribute names, across relations, in
// sorted order.
func (ix *TargetIndex) SortedAttrs() []string { return ix.attrs }

// RelValues returns the symbols of the cells of the target relation named
// rel, nil when the target has no such relation.
func (ix *TargetIndex) RelValues(rel string) map[Symbol]bool { return ix.relVals[rel] }

// AttrValues returns the symbols of the target's cells under attribute
// att, across relations, nil when no target relation has it.
func (ix *TargetIndex) AttrValues(att string) map[Symbol]bool { return ix.attrVals[att] }

// Fragment returns the TNF fragment of the target relation whose name is
// rel, nil when the target has none.
func (ix *TargetIndex) Fragment(rel Symbol) *Fragment { return ix.frags[rel] }

// Contains is the goal test (§2.3): whether state contains the target,
// answered by the containment index exactly as state.Contains(target).
func (ix *TargetIndex) Contains(state *Database) bool { return ix.contain.Contains(state) }
