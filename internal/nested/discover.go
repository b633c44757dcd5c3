package nested

import (
	"fmt"
	"sort"

	"tupelo/internal/search"
)

// Discovery for the nested model reuses the generic search core unchanged:
// states are documents, moves are LX operators instantiated from the two
// critical documents, the goal is containment of the target document, and
// the heuristic is the token-difference h1 transplanted to (tags, attrs,
// values). That the whole file fits in a few hundred lines is the point of
// §7's claim about the architecture's generality.

// docState adapts *Node to search.State.
type docState struct {
	doc *Node
	key string
}

func newDocState(doc *Node) *docState {
	return &docState{doc: doc, key: doc.Fingerprint()}
}

// Key implements search.State.
func (s *docState) Key() string { return s.key }

// xProblem is the nested-model mapping search space.
type xProblem struct {
	source *Node
	target *Node

	tTags  map[string]bool
	tAttrs map[string]bool
	tVals  map[string]bool
}

func newXProblem(source, target *Node) *xProblem {
	return &xProblem{
		source: source,
		target: target,
		tTags:  target.Tags(),
		tAttrs: target.AttrNames(),
		tVals:  target.Values(),
	}
}

// Start implements search.Problem.
func (p *xProblem) Start() search.State { return newDocState(p.source) }

// IsGoal implements search.Problem.
func (p *xProblem) IsGoal(s search.State) bool {
	return s.(*docState).doc.Contains(p.target)
}

// Successors implements search.Problem, instantiating LX operators from
// tokens of the state and the target.
func (p *xProblem) Successors(s search.State) ([]search.Move, error) {
	doc := s.(*docState).doc
	var ops []XOp
	tags := sortedKeys(doc.Tags())
	attrsByTag := attrIndex(doc)
	missingTags := p.missing(p.tTags, doc.Tags())
	missingAttrs := p.missing(p.tAttrs, doc.AttrNames())

	for _, tag := range tags {
		if !p.tTags[tag] {
			for _, to := range missingTags {
				ops = append(ops, RenameTag{From: tag, To: to})
			}
		}
		for _, a := range attrsByTag[tag] {
			if !p.tAttrs[a] {
				for _, to := range missingAttrs {
					ops = append(ops, RenameAttr{Tag: tag, From: a, To: to})
				}
			}
			// Demote an attribute whose name the target uses as a tag.
			if p.tTags[a] {
				ops = append(ops, AttrToChild{Tag: tag, Attr: a})
			}
		}
	}
	// Promote leaf children whose tag the target uses as an attribute, and
	// hoist intermediate levels the target does not know.
	doc.Walk(func(n *Node) {
		seen := map[string]bool{}
		for _, c := range n.Children {
			if seen[c.Tag] {
				continue
			}
			seen[c.Tag] = true
			if p.tAttrs[c.Tag] {
				ops = append(ops, ChildToAttr{Tag: n.Tag, ChildTag: c.Tag})
			}
			if !p.tTags[c.Tag] && len(c.Attrs) == 0 && c.Text == "" {
				ops = append(ops, Hoist{Tag: n.Tag, ChildTag: c.Tag})
			}
		}
		if n.Text != "" {
			for _, a := range missingAttrs {
				if p.tVals[n.Text] {
					ops = append(ops, TextToAttr{Tag: n.Tag, Attr: a})
				}
			}
		}
	})

	var moves []search.Move
	seen := map[string]bool{}
	for _, op := range ops {
		label := op.String()
		if seen[label] {
			continue
		}
		seen[label] = true
		next, err := op.Apply(doc)
		if err != nil {
			continue
		}
		ns := newDocState(next)
		if ns.key == s.Key() {
			continue
		}
		moves = append(moves, search.Move{Op: op, To: ns, Cost: 1})
	}
	return moves, nil
}

func (p *xProblem) missing(want, have map[string]bool) []string {
	var out []string
	for k := range want {
		if !have[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func attrIndex(doc *Node) map[string][]string {
	idx := map[string]map[string]bool{}
	doc.Walk(func(n *Node) {
		if idx[n.Tag] == nil {
			idx[n.Tag] = map[string]bool{}
		}
		for a := range n.Attrs {
			idx[n.Tag][a] = true
		}
	})
	out := make(map[string][]string, len(idx))
	for tag, attrs := range idx {
		out[tag] = sortedKeys(attrs)
	}
	return out
}

// h1x is the nested analogue of §3's h1: target tokens (tags, attribute
// names, values) missing from the state.
func (p *xProblem) h1x(doc *Node) int {
	return countMissing(p.tTags, doc.Tags()) +
		countMissing(p.tAttrs, doc.AttrNames()) +
		countMissing(p.tVals, doc.Values())
}

func countMissing(want, have map[string]bool) int {
	n := 0
	for k := range want {
		if !have[k] {
			n++
		}
	}
	return n
}

// XResult is a successful nested-model discovery.
type XResult struct {
	Expr  XExpr
	Stats search.Stats
}

// XOptions configures nested-model discovery.
type XOptions struct {
	// Algorithm defaults to RBFS.
	Algorithm search.Algorithm
	// Limits bounds the search; MaxStates defaults to 1,000,000.
	Limits search.Limits
}

// Discover searches for an LX expression carrying the source critical
// document to (a superset of) the target critical document.
func Discover(source, target *Node, opts XOptions) (*XResult, error) {
	if source == nil || target == nil {
		return nil, fmt.Errorf("nested: nil source or target document")
	}
	if opts.Limits.MaxStates == 0 {
		opts.Limits.MaxStates = 1_000_000
	}
	prob := newXProblem(source, target)
	memo := map[string]int{}
	h := func(s search.State) int {
		ds := s.(*docState)
		if v, ok := memo[ds.key]; ok {
			return v
		}
		v := prob.h1x(ds.doc)
		memo[ds.key] = v
		return v
	}
	res, err := search.Run(opts.Algorithm, prob, h, opts.Limits)
	if err != nil {
		return nil, err
	}
	expr := make(XExpr, len(res.Path))
	for i, m := range res.Path {
		expr[i] = m.Op.(XOp)
	}
	return &XResult{Expr: expr, Stats: res.Stats}, nil
}
