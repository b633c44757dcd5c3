package heuristic

// This file declares heuristics beyond the paper's §3, addressing its
// concluding open question (§7): "Successful heuristics must measure both
// content and structure. Is there a good multi-purpose search heuristic?"
// They are excluded from Kinds() — the paper's eight — and exercised by the
// ablation benchmarks and the extension experiment. The aggregate
// evaluator in evaluator.go serves them alongside the paper kinds.

const (
	// Hybrid combines content and structure: the token-difference h1, the
	// role-crossing h2, and a shape distance over relation count, attribute
	// count, and tuple count. It dominates h3 in informativeness while
	// remaining cheap to evaluate.
	//
	// The shape term measures the structural *deficit* of x against the
	// target: how many relations, attributes, and tuples the target has
	// beyond what x holds. Only deficits count — the goal test is
	// containment (§2.3), so a state may exceed the target in every
	// dimension and still be a goal; penalizing surpluses would make the
	// heuristic non-zero at goals and actively misleading.
	Hybrid Kind = iota + 100
	// Jaccard is a scaled Jaccard distance over the union of the three TNF
	// projections — a normalized content measure comparable to cosine but
	// set-based rather than frequency-based. Tokens are role-tagged: a token
	// appearing as data in one database and metadata in the other does not
	// count as shared.
	Jaccard
)

// ExtendedKinds lists the post-paper heuristics.
func ExtendedKinds() []Kind { return []Kind{Hybrid, Jaccard} }

// extendedString names extended kinds; returns "" for paper kinds.
func extendedString(k Kind) string {
	switch k {
	case Hybrid:
		return "hybrid"
	case Jaccard:
		return "jaccard"
	default:
		return ""
	}
}

// deficit returns how far have falls short of want, never negative.
func deficit(want, have int) int {
	if want > have {
		return want - have
	}
	return 0
}

// shape is a database's structural profile: the three totals the Hybrid
// heuristic's deficit term compares.
type shape struct {
	rels, attrs, tuples int
}
