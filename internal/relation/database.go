package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Database is a named collection of relations with unique names.
// Like Relation, it is used copy-on-write: mutating methods return new
// databases, which makes Database values safe to share as search states.
//
// Representation: a slice of relations sorted by name. Databases are tiny
// (the paper's critical instances hold a handful of relations) and search
// creates millions of them, one per candidate operator application — a
// sorted slice makes that copy a single allocation, where the map it
// replaced paid for hash buckets on every successor, and it gives the
// canonical iteration order away for free.
type Database struct {
	rels []*Relation // sorted by name, names unique

	// memo holds the forms derived from the whole database, nil until the
	// first caller of derived publishes one: most databases are search
	// states, which never need them, so the header carries one pointer.
	// Databases are immutable after publication, like Relations, and never
	// copied by value (go vet's copylocks check guards the atomic pointer).
	memo atomic.Pointer[dbMemo]
}

// dbMemo holds the lazily computed whole-database forms: the target index
// and the value set, each computed once and shared by every caller.
type dbMemo struct {
	indexOnce sync.Once
	index     *TargetIndex
	valsOnce  sync.Once
	vals      map[string]bool
}

// derived returns the database's memo, publishing an empty one on first
// use; racing callers agree on the one that won the swap.
func (db *Database) derived() *dbMemo {
	if m := db.memo.Load(); m != nil {
		return m
	}
	db.memo.CompareAndSwap(nil, &dbMemo{})
	return db.memo.Load()
}

// newDB wraps a sorted relation slice in a Database.
// Callers guarantee rels is sorted by name with unique names; the slice is
// owned by the new database.
func newDB(rels []*Relation) *Database {
	return &Database{rels: rels}
}

// find returns the index of the named relation in the sorted slice, or
// (insertion point, false) if absent. Linear scan: databases stay within a
// handful of relations, where scanning beats binary search bookkeeping.
func (db *Database) find(name string) (int, bool) {
	for i, r := range db.rels {
		if r.name >= name {
			return i, r.name == name
		}
	}
	return len(db.rels), false
}

// NewDatabase creates a database from the given relations. Relation names
// must be unique.
func NewDatabase(rels ...*Relation) (*Database, error) {
	sorted := make([]*Relation, 0, len(rels))
	for _, r := range rels {
		if r == nil {
			return nil, fmt.Errorf("database: nil relation")
		}
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].name == sorted[i-1].name {
			return nil, fmt.Errorf("database: duplicate relation name %q", sorted[i].name)
		}
	}
	return newDB(sorted), nil
}

// MustDatabase is like NewDatabase but panics on error.
func MustDatabase(rels ...*Relation) *Database {
	db, err := NewDatabase(rels...)
	if err != nil {
		panic(err)
	}
	return db
}

// Len returns the number of relations.
func (db *Database) Len() int { return len(db.rels) }

// ordered returns the relations in sorted-name order, shared — callers
// inside the package must not modify it.
func (db *Database) ordered() []*Relation { return db.rels }

// Names returns the relation names in sorted order.
func (db *Database) Names() []string {
	out := make([]string, len(db.rels))
	for i, r := range db.rels {
		out[i] = r.name
	}
	return out
}

// Relations returns the relations in sorted-name order. The slice is the
// caller's to keep.
func (db *Database) Relations() []*Relation {
	return append([]*Relation(nil), db.rels...)
}

// RelationView returns the relations in sorted-name order, shared: callers
// must treat the slice as read-only. It is Relations without the defensive
// copy, for the move generators that read every relation of every state
// they expand.
func (db *Database) RelationView() []*Relation { return db.rels }

// Relation returns the relation with the given name, or false if absent.
func (db *Database) Relation(name string) (*Relation, bool) {
	if i, ok := db.find(name); ok {
		return db.rels[i], true
	}
	return nil, false
}

// Clone returns a deep copy of the database.
func (db *Database) Clone() *Database {
	out := make([]*Relation, len(db.rels))
	for i, r := range db.rels {
		out[i] = r.Clone()
	}
	return newDB(out)
}

// WithRelation returns a copy of the database in which the relation named
// r.Name() is replaced by (or extended with) r.
func (db *Database) WithRelation(r *Relation) *Database {
	i, ok := db.find(r.name)
	if ok {
		out := make([]*Relation, len(db.rels))
		copy(out, db.rels)
		out[i] = r
		return newDB(out)
	}
	out := make([]*Relation, len(db.rels)+1)
	copy(out, db.rels[:i])
	out[i] = r
	copy(out[i+1:], db.rels[i:])
	return newDB(out)
}

// WithoutRelation returns a copy of the database lacking the named relation.
// It is a no-op copy if the relation does not exist.
func (db *Database) WithoutRelation(name string) *Database {
	i, ok := db.find(name)
	if !ok {
		return newDB(append([]*Relation(nil), db.rels...))
	}
	out := make([]*Relation, 0, len(db.rels)-1)
	out = append(out, db.rels[:i]...)
	out = append(out, db.rels[i+1:]...)
	return newDB(out)
}

// ReplaceRelation returns a copy in which the relation named old is removed
// and r is added, along with the relation that occupied the replaced slot.
// It fails if old is absent or r's name collides with a different existing
// relation. Unlike the WithoutRelation().WithRelation() chain it once was,
// this copies the relation slice exactly once and hands the replaced slot
// back, so callers that feed incremental heuristic evaluators know which
// relation left the state without diffing.
func (db *Database) ReplaceRelation(old string, r *Relation) (*Database, *Relation, error) {
	oi, ok := db.find(old)
	if !ok {
		return nil, nil, fmt.Errorf("database: no relation %q", old)
	}
	prev := db.rels[oi]
	if r.name == old {
		out := make([]*Relation, len(db.rels))
		copy(out, db.rels)
		out[oi] = r
		return newDB(out), prev, nil
	}
	ni, clash := db.find(r.name)
	if clash {
		return nil, nil, fmt.Errorf("database: relation %q already exists", r.name)
	}
	out := make([]*Relation, 0, len(db.rels))
	if ni > oi {
		// r sorts after the removed slot: shift the span between them left.
		out = append(out, db.rels[:oi]...)
		out = append(out, db.rels[oi+1:ni]...)
		out = append(out, r)
		out = append(out, db.rels[ni:]...)
	} else {
		out = append(out, db.rels[:ni]...)
		out = append(out, r)
		out = append(out, db.rels[ni:oi]...)
		out = append(out, db.rels[oi+1:]...)
	}
	return newDB(out), prev, nil
}

// Equal reports whether two databases contain semantically equal relations
// under the same names.
func (db *Database) Equal(other *Database) bool {
	if len(db.rels) != len(other.rels) {
		return false
	}
	// Both slices are name-sorted, so equal databases align position-wise.
	for i, r := range db.rels {
		o := other.rels[i]
		if r.name != o.name || !r.Equal(o) {
			return false
		}
	}
	return true
}

// Contains implements the paper's goal test (§2.3): db is a structurally
// identical superset of target when every target relation exists in db under
// the same name and each is contained per Relation.Contains.
func (db *Database) Contains(target *Database) bool {
	for _, t := range target.rels {
		r, ok := db.Relation(t.name)
		if !ok || !r.Contains(t) {
			return false
		}
	}
	return true
}

// Fingerprint returns a canonical string identifying the database up to
// relation, attribute, and tuple ordering. Two databases have equal
// fingerprints iff they are Equal. Per-relation fingerprints are memoized,
// so a successor that replaced one relation via WithRelation pays only for
// that relation; the untouched relations return their cached strings.
func (db *Database) Fingerprint() string {
	parts := make([]string, 0, len(db.rels))
	for _, r := range db.rels {
		parts = append(parts, r.Fingerprint())
	}
	return strings.Join(parts, "\x1b")
}

// Key returns a compact 16-byte identity for the database, suitable as a
// map key: digest128 over the concatenation of the per-relation 128-bit
// hashes in sorted-name order. The per-relation hashes are fixed-width, so
// the concatenation is unambiguous, and each one covers the relation's full
// canonical form including its name — two databases with equal keys are
// Equal up to hash collisions (see DESIGN.md, "State identity", for the
// collision-probability argument).
func (db *Database) Key() string {
	k := db.keyOf(-1, [16]byte{})
	return string(k[:])
}

// keyStackRels is the most relations whose hashes keyOf concatenates in a
// stack buffer; KeyWith declines beyond it.
const keyStackRels = 8

// KeyWith previews the Key of db with the relation c was previewed from
// replaced by the child c previews, without building either: the key bytes
// stay on the stack. The parent's slot is found by pointer, so the
// relation's name is never compared again. It declines (ok is false) when
// the parent is not one of db's relations or db holds more than
// keyStackRels relations.
func (db *Database) KeyWith(c ChildHash) (key [16]byte, ok bool) {
	if !c.set || len(db.rels) > keyStackRels {
		return key, false
	}
	for i, r := range db.rels {
		if r == c.parent {
			return db.keyOf(i, c.sum), true
		}
	}
	return key, false
}

// keyOf computes Key's bytes with relation i's hash taken as h (no
// substitution when i is -1).
func (db *Database) keyOf(i int, h [16]byte) [16]byte {
	hashOf := func(k int) [16]byte {
		if k == i {
			return h
		}
		return db.rels[k].Hash()
	}
	if len(db.rels) == 1 {
		// A single relation's hash already covers its name and full
		// canonical form; re-hashing it adds nothing. This is the common
		// case for the paper's synthetic matching states.
		return hashOf(0)
	}
	var bufArr [16 * keyStackRels]byte
	buf := bufArr[:0]
	if len(db.rels) > keyStackRels {
		buf = make([]byte, 0, 16*len(db.rels))
	}
	for k := range db.rels {
		rh := hashOf(k)
		buf = append(buf, rh[:]...)
	}
	return digest128(buf)
}

// TargetIndex returns the database's index as a mapping target, built on
// the first call and shared by every later one.
func (db *Database) TargetIndex() *TargetIndex {
	m := db.derived()
	m.indexOnce.Do(func() { m.index = newTargetIndex(db) })
	return m.index
}

// ValueSet returns the set of data values across all relations, memoized
// and shared: callers must treat the map as read-only.
func (db *Database) ValueSet() map[string]bool {
	m := db.derived()
	m.valsOnce.Do(func() {
		out := make(map[string]bool)
		strs := strsSnapshot()
		for _, r := range db.rels {
			for j := range r.cols {
				// Decode each distinct symbol once per column instead of
				// walking every cell string.
				for _, s := range r.distinctSymbols()[j] {
					out[strs[s]] = true
				}
			}
		}
		m.vals = out
	})
	return m.vals
}

// Size returns the total number of cells (tuples × arity summed over
// relations); the paper's branching factor is proportional to |s| + |t|.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len() * r.Arity()
	}
	return n
}
