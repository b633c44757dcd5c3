// Package heuristic implements the search heuristics of §3 of "Data Mapping
// as Search" (EDBT 2006). A heuristic h(x) estimates the number of
// intermediate search states between a database x and the target critical
// instance t. All heuristics view databases through their Tuple Normal Form
// — here via the per-relation TNF fragments memoized on relation.Relation
// (relation.Fragment), whose multiset counters merge into exactly the
// projections, term vectors, and canonical strings that tnf.Encode produces:
//
//	h0    — constant 0: brute-force blind search (the paper's baseline)
//	h1    — set difference of the REL/ATT/VALUE projections
//	h2    — minimum promotions/demotions: cross-intersections of projections
//	h3    — max(h1, h2)
//	hL    — normalized Levenshtein distance of canonical strings, scaled by k
//	hE    — Euclidean distance of (REL, ATT, VALUE)-triple term vectors
//	h|E|  — normalized Euclidean distance, scaled by k
//	hcos  — cosine distance of term vectors, scaled by k
//
// Heuristics are exposed through the Evaluator interface (see evaluator.go);
// most kinds additionally implement IncrementalEvaluator and can evaluate a
// successor from the parent's aggregate and what the successor changes —
// the replaced relation's fragment, or a previewed child's edit of it —
// instead of re-encoding the whole state.
//
// The scaling constants k that the paper found optimal per (algorithm,
// heuristic) pair live in scale.go.
package heuristic

import (
	"fmt"
	"strings"
)

// Kind identifies one of the paper's heuristics.
type Kind int

const (
	// Unset is the zero Kind. It is not a heuristic of its own: the engine
	// resolves it to the paper's overall best (Cosine), so a zero-valued
	// configuration means "best known" rather than silently selecting blind
	// search. Use H0 explicitly to request blind search.
	Unset Kind = iota
	// H0 is the constant-zero heuristic inducing blind search.
	H0
	// H1 counts target relation/attribute/value tokens missing from x.
	H1
	// H2 counts cross-category overlaps: the minimum number of promotions
	// (↑) and demotions (↓) needed to move tokens between metadata and data.
	H2
	// H3 is max(H1, H2).
	H3
	// Levenshtein is the normalized string-edit-distance heuristic hL.
	Levenshtein
	// Euclid is the unnormalized term-vector Euclidean distance hE.
	Euclid
	// EuclidNorm is the normalized term-vector Euclidean distance h|E|.
	EuclidNorm
	// Cosine is the term-vector cosine distance hcos.
	Cosine
)

// Kinds lists all heuristics in the paper's presentation order.
func Kinds() []Kind {
	return []Kind{H0, H1, H2, H3, Levenshtein, Euclid, EuclidNorm, Cosine}
}

// KindNames returns the accepted names of every heuristic — the paper's
// eight followed by the extended kinds — in presentation order. It is the
// single source of truth behind CLI flag help and ParseKind's error message.
func KindNames() []string {
	paper, ext := Kinds(), ExtendedKinds()
	out := make([]string, 0, len(paper)+len(ext))
	for _, k := range paper {
		out = append(out, k.String())
	}
	for _, k := range ext {
		out = append(out, k.String())
	}
	return out
}

// String names the heuristic as in the paper's figures.
func (k Kind) String() string {
	switch k {
	case Unset:
		return "unset"
	case H0:
		return "h0"
	case H1:
		return "h1"
	case H2:
		return "h2"
	case H3:
		return "h3"
	case Levenshtein:
		return "levenshtein"
	case Euclid:
		return "euclid"
	case EuclidNorm:
		return "euclid-norm"
	case Cosine:
		return "cosine"
	default:
		if s := extendedString(k); s != "" {
			return s
		}
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves the names accepted on command lines and in configs,
// including the extended (post-paper) heuristics. The error for an unknown
// name enumerates every valid one.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	for _, k := range ExtendedKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("heuristic: unknown kind %q (valid: %s)", s, strings.Join(KindNames(), ", "))
}

// Scaled reports whether the heuristic uses a scaling constant k (§3 scales
// only the normalized heuristics).
func (k Kind) Scaled() bool {
	switch k {
	case Levenshtein, EuclidNorm, Cosine, Jaccard:
		return true
	}
	return false
}
