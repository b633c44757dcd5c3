package relation

import "sync"

// Symbol is an interned string: a small integer standing for a relation
// name, attribute name, or data value in the run-wide dictionary. Symbols
// are cheaper than strings everywhere the hot path compares, hashes, or
// keys maps by tokens: 4 bytes, compared in one instruction, hashed
// trivially. Two strings intern to the same Symbol iff they are equal, so
// symbol equality is string equality within a process.
//
// Symbols are process-scoped and assignment order depends on interning
// order, so they must never be persisted or compared across processes.
// Identities that must survive a process boundary (Relation.Hash,
// Database.Key) are built from the per-symbol content signatures instead,
// which depend only on the string's bytes.
type Symbol int32

// sigPair is the 128-bit content signature of an interned string: digest128
// of its bytes, computed once at interning time. Relation.Hash mixes cell
// signatures instead of re-walking cell bytes, which keeps the hash
// content-based (stable across processes, independent of interning order)
// while the hot path touches only fixed-width words.
type sigPair struct {
	lo, hi uint64
}

// ordKey is a string's order key: its first 8 bytes, big-endian, padded
// with zero bytes. Keys order like the strings they prefix — ordKey(a) <
// ordKey(b) implies a < b — so sorting by key and comparing the strings only
// on equal keys is exactly the string order, at one integer compare for
// names that differ in their first 8 bytes.
func ordKey(s string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

// interner is the run-wide concurrent string dictionary. The table only
// grows: tokens come from the source and target critical instances plus the
// bounded vocabulary the FIRA operators synthesize from them (e.g. partition
// relation names), so the population is small and retained for the life of
// the process — see DESIGN.md, "Incremental heuristics and interning".
//
// Reads vastly outnumber writes once a search is warm, so lookups take an
// RLock; the write lock is only held while inserting a new token. The strs,
// sigs and ords slices are append-only: a snapshot of any of them taken
// under RLock stays valid for every symbol issued before the snapshot, even
// while concurrent inserts grow (and possibly reallocate) the live slice.
type interner struct {
	mu   sync.RWMutex
	ids  map[string]Symbol
	strs []string
	sigs []sigPair
	ords []uint64 // ordKey of each string
}

var globalIntern = &interner{ids: make(map[string]Symbol, 256)}

// Intern returns the symbol for s, assigning one if s has not been seen.
// Safe for concurrent use.
func Intern(s string) Symbol {
	in := globalIntern
	in.mu.RLock()
	sym, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return sym
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if sym, ok = in.ids[s]; ok {
		return sym
	}
	sym = Symbol(len(in.strs))
	d := digest128([]byte(s))
	in.strs = append(in.strs, s)
	in.sigs = append(in.sigs, sigPair{
		lo: leUint64(d[0:8]),
		hi: leUint64(d[8:16]),
	})
	in.ords = append(in.ords, ordKey(s))
	in.ids[s] = sym
	return sym
}

// LookupSymbol returns the symbol for s if it has been interned.
// Safe for concurrent use.
func LookupSymbol(s string) (Symbol, bool) {
	in := globalIntern
	in.mu.RLock()
	sym, ok := in.ids[s]
	in.mu.RUnlock()
	return sym, ok
}

// String returns the interned string for the symbol. It panics on a symbol
// that was never issued by Intern, exactly like an out-of-range slice index.
// Safe for concurrent use.
func (s Symbol) String() string {
	in := globalIntern
	in.mu.RLock()
	str := in.strs[s]
	in.mu.RUnlock()
	return str
}

// strsSnapshot returns the dictionary's string table under a single RLock.
// The returned slice must be treated as read-only; it covers every symbol
// issued before the call (append-only growth never invalidates old
// entries). Bulk decoders use it to pay one lock acquisition per relation
// instead of one per cell.
func strsSnapshot() []string {
	in := globalIntern
	in.mu.RLock()
	s := in.strs
	in.mu.RUnlock()
	return s
}

// hashSnapshot is strsSnapshot's counterpart for the hash core: the content
// signatures, the order keys and the strings, all taken under one RLock.
func hashSnapshot() ([]sigPair, []uint64, []string) {
	in := globalIntern
	in.mu.RLock()
	sigs, ords, strs := in.sigs, in.ords, in.strs
	in.mu.RUnlock()
	return sigs, ords, strs
}

// SymbolOrder returns a comparator that orders symbols as their strings
// order, over one snapshot of the dictionary taken now: it covers every
// symbol issued before the call. It compares order keys and falls back to
// the strings only when two keys tie — the rule attribute sorting applies
// too (sortAttrs) — so operators that must order cells the way their
// strings order, independent of interning order, never decode a cell.
func SymbolOrder() func(a, b Symbol) int {
	in := globalIntern
	in.mu.RLock()
	strs, ords := in.strs, in.ords
	in.mu.RUnlock()
	return func(a, b Symbol) int {
		switch {
		case a == b:
			return 0
		case orderedLess(ords[a], ords[b], strs[a], strs[b]):
			return -1
		}
		return 1 // distinct symbols stand for distinct strings
	}
}

// orderedLess reports whether string a orders before string b, given their
// order keys: the keys decide unless they tie, which is exactly the string
// order (see ordKey).
func orderedLess(ka, kb uint64, a, b string) bool {
	if ka != kb {
		return ka < kb
	}
	return a < b
}

// EmptySymbol returns the interned empty string — the absent-value marker
// the FIRA restructuring operators use (DESIGN.md §12).
func EmptySymbol() Symbol { return emptySym }
