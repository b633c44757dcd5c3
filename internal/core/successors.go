package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"tupelo/internal/faults"
	"tupelo/internal/fira"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// mappingProblem is the search space of §2.3: states are databases, moves
// are applications of L operators, the start state is the source critical
// instance, and goals are states containing the target critical instance.
type mappingProblem struct {
	source *relation.Database
	target *relation.Database
	reg    *lambda.Registry
	corrs  []lambda.Correspondence

	// Target-side token sets, computed once. tAttrsSorted is the sorted
	// enumeration of tAttrs, shared by move generators that need the target
	// attributes in a deterministic order (previously each derefMoves call
	// rebuilt and re-sorted it from scratch).
	tAttrs       map[string]bool
	tAttrsSorted []string
	tRels        map[string]bool
	tRelsSorted  []string
	tVals        map[string]bool
	// Symbol-space mirrors of the target token sets, keyed by interned
	// symbol instead of string. Move generators probe these against raw
	// column symbols — interning is canonical, so symbol equality is string
	// equality — which keeps the per-expansion pruning scans free of
	// per-cell decoding.
	tAttrSymSet map[relation.Symbol]bool
	tRelSymSet  map[relation.Symbol]bool
	tValSymSet  map[relation.Symbol]bool
	// tAttrValSyms maps each target attribute to the set of value symbols
	// the target holds under it (across relations); tRelValSyms likewise per
	// relation. They power the value-evidence pruning of rename candidates.
	tAttrValSyms map[string]map[relation.Symbol]bool
	tRelValSyms  map[string]map[relation.Symbol]bool

	// goalIx is the precomputed containment index over the target critical
	// instance: the goal test runs once per distinct examined state (IsGoal
	// stores the verdict on the state), and the indexed form replaces
	// Database.Contains's nested-loop tuple scan with hash lookups. It
	// answers exactly what Database.Contains answers (the scan is kept as
	// the reference implementation, cross-checked by tests).
	goalIx *relation.ContainmentIndex

	// table holds the run's canonical state for every key: the start state
	// and every successor are interned here, and the search sees nothing
	// else. Each state's move list is computed by its first expansion and
	// read from the state (dbState.moves) on every later one.
	//
	// Sampling semantics: because memoized expansions bypass the operator
	// pipeline, the per-operator apply metrics (core.op.apply.seconds and
	// friends), the EvOpApply trace stream and the fault hook's SiteOpApply
	// hits observe only memo misses — the first expansion of each distinct
	// state. The core.succmemo.hits/.misses counters and the
	// EvMemoHit/EvMemoMiss events carry the denominator, so consumers can
	// reconstruct totals (a profile's "operator table samples misses only"
	// line makes the same point).
	//
	// applyAll keys ρ^att and π̄ children before building them
	// (childPreview): a child the table lacks becomes a pending state,
	// estimated from its edit and built when the search first reads its
	// database.
	table stateTable

	// scratch is the run's expansion scratch, reused by every expansion: a
	// run expands its states on one goroutine (DESIGN.md §10), and nothing
	// in it outlives the expansion that fills it.
	scratch expansionScratch

	// Expansion machinery. est estimates every state an expansion
	// creates, so the search loop's h() calls are field reads. inc is est's
	// incremental capability view when it has one: each expansion then
	// seeds the parent's aggregate, and its new successors are estimated
	// from what their operators change — a previewed child's edit, a built
	// child's replaced fragments — against it instead of re-encoding.
	est heuristic.Evaluator
	inc heuristic.IncrementalEvaluator

	// met, when non-nil, records per-operator-kind proposal/application
	// counts, apply-latency histograms, and memo and estimate lookups. Nil
	// when the run has no metrics registry, keeping the hot path free of map
	// lookups.
	met *opMetrics
	// tracer, when non-nil, receives one EvOpApply event per candidate
	// operator application, carrying the operator and its apply latency,
	// plus the memo and estimate lookup events.
	tracer obs.Tracer
	// hEval, when non-nil, times heuristic evaluations.
	hEval *obs.Histogram
	// fault, when non-nil, is the test-only fault-injection hook
	// (Options.FaultHook), called at the sites of the one expansion path; a
	// hook that returns changes nothing the search does. hLabel is the label
	// it receives at heuristic evaluations, and the label of the estimate
	// lookup metrics and events.
	fault  func(faults.Site, string)
	hLabel string
}

func newProblem(source, target *relation.Database, opts Options) *mappingProblem {
	hLabel := cacheLabel(opts)
	p := &mappingProblem{
		source:       source,
		target:       target,
		reg:          opts.Registry,
		corrs:        opts.Correspondences,
		table:        make(stateTable),
		tRels:        target.RelationNames(),
		tAttrs:       target.AttrNames(),
		tVals:        target.ValueSet(),
		tAttrValSyms: make(map[string]map[relation.Symbol]bool),
		tRelValSyms:  make(map[string]map[relation.Symbol]bool),
		met:          newOpMetrics(opts.Metrics, hLabel),
		tracer:       opts.Tracer,
		fault:        opts.FaultHook,
		hLabel:       hLabel,
		goalIx:       relation.NewContainmentIndex(target),
	}
	p.tAttrsSorted = sortedKeys(p.tAttrs)
	p.tRelsSorted = sortedKeys(p.tRels)
	p.est = heuristic.New(opts.Heuristic, target, opts.K)
	if opts.Metrics != nil {
		p.hEval = opts.Metrics.Histogram(obs.Name("heuristic.eval.seconds", "heuristic", hLabel))
	}
	p.inc, _ = heuristic.AsIncremental(p.est)
	// The target's token sets double as symbol sets: every name and value in
	// them is (re-)interned here, once, so state columns can be probed by
	// symbol. Any string a state can ever hold under these sets is already
	// interned — FIRA operators move existing strings around, they never
	// synthesize new ones.
	p.tAttrSymSet = internSet(p.tAttrs)
	p.tRelSymSet = internSet(p.tRels)
	p.tValSymSet = internSet(p.tVals)
	for _, r := range target.RelationView() {
		rv := make(map[relation.Symbol]bool)
		for j, a := range r.AttrView() {
			av := p.tAttrValSyms[a]
			if av == nil {
				av = make(map[relation.Symbol]bool)
				p.tAttrValSyms[a] = av
			}
			for _, s := range r.DistinctSymbols(j) {
				av[s] = true
				rv[s] = true
			}
		}
		p.tRelValSyms[r.Name()] = rv
	}
	return p
}

// expansionScratch holds the slices one expansion fills and the next
// reuses: the candidate operators, the positional successor states, the
// parent/child diff each new built state's estimate reads with its
// fragments, and the move generators' per-expansion lists.
type expansionScratch struct {
	ops            []fira.Op
	states         []*dbState
	removed, added []*relation.Relation
	remF, addF     []*relation.Fragment
	missingRels    []string
	missingAtts    []string
	// attEvidence parallels missingAtts: each missing target attribute's
	// value symbols (tAttrValSyms), resolved once per expansion.
	attEvidence []map[relation.Symbol]bool
}

// internSet interns every member of a string set into a symbol set.
func internSet(set map[string]bool) map[relation.Symbol]bool {
	out := make(map[relation.Symbol]bool, len(set))
	for k := range set {
		out[relation.Intern(k)] = true
	}
	return out
}

// Start implements search.Problem: the canonical state of the source
// critical instance.
func (p *mappingProblem) Start() search.State {
	s, _ := p.table.intern(p.source, p.source.Key())
	return s
}

// IsGoal implements search.Problem: the state is a structurally identical
// superset of the target critical instance. The first test of a state runs
// against the precomputed containment index, equivalent to
// db.Contains(p.target), and stores the verdict on the state; every revisit
// reads it. The first test of a pending state builds its database.
func (p *mappingProblem) IsGoal(s search.State) bool {
	ds := s.(*dbState)
	if ds.goal != verdictUntested {
		return ds.goal == verdictGoal
	}
	goal := p.goalIx.Contains(ds.database())
	ds.goal = verdictNotGoal
	if goal {
		ds.goal = verdictGoal
	}
	return goal
}

// Successors implements search.Problem. Operator arguments are instantiated
// from names and values present in the current state and the target
// instance, giving the branching factor proportional to |s| + |t| that the
// paper reports. Moves that fail to apply or that do not change the state
// are dropped. A state's moves are computed once and then read from the
// state. With an incremental evaluator the expansion seeds the state's
// aggregate, which its new successors' estimates read and which is dropped
// when the expansion returns; the seed is timed into the expansion, not
// into heuristic.eval.seconds.
func (p *mappingProblem) Successors(s search.State) ([]search.Move, error) {
	parent := s.(*dbState)
	if parent.moves != nil {
		p.met.memo(true)
		if p.tracer != nil {
			p.tracer.Event(obs.Event{Kind: obs.EvMemoHit})
		}
		return parent.moves, nil
	}
	p.met.memo(false)
	if p.tracer != nil {
		p.tracer.Event(obs.Event{Kind: obs.EvMemoMiss})
	}
	db := parent.database()
	var agg heuristic.Agg
	if p.inc != nil {
		agg = p.inc.Seed(db)
	}
	ops := p.candidateOps(db)
	states, err := p.applyAll(parent, agg, ops)
	if err != nil {
		return nil, err
	}
	moves := make([]search.Move, 0, len(ops))
	for i, ns := range states {
		if ns == nil {
			// The candidate failed its own preconditions or left the state
			// unchanged: not an error, just not a successor.
			p.met.count(ops[i], false)
			continue
		}
		moves = append(moves, search.Move{Op: ops[i], To: ns, Cost: 1})
		p.met.count(ops[i], true)
	}
	parent.moves = moves
	return moves, nil
}

// expCtx is the per-expansion view of a state shared by every move
// generator: the state's sorted relation slice, read in place.
type expCtx struct {
	db   *relation.Database
	rels []*relation.Relation
}

func newExpCtx(db *relation.Database) *expCtx {
	return &expCtx{db: db, rels: db.RelationView()}
}

// hasRel reports whether the state has a relation named name.
func (x *expCtx) hasRel(name string) bool {
	_, ok := x.db.Relation(name)
	return ok
}

// hasAttr reports whether some relation of the state has attribute a. A
// state holds a handful of relations, so scanning them beats building a
// name set per expanded state.
func (x *expCtx) hasAttr(a string) bool {
	for _, r := range x.rels {
		if r.HasAttr(a) {
			return true
		}
	}
	return false
}

// candidateOps instantiates every candidate operator for the state,
// optimistically: operators enforce their own preconditions at Apply time.
// The generators append, in a fixed order, to the run's candidate scratch;
// the slice is valid until the next expansion.
func (p *mappingProblem) candidateOps(db *relation.Database) []fira.Op {
	x := newExpCtx(db)
	ops := p.scratch.ops[:0]
	ops = p.renameRelMoves(ops, x)
	ops = p.renameAttMoves(ops, x)
	ops = p.dropMoves(ops, x)
	ops = p.promoteMoves(ops, x)
	ops = p.demoteMoves(ops, x)
	ops = p.derefMoves(ops, x)
	ops = p.partitionMoves(ops, x)
	ops = p.productMoves(ops, x)
	ops = p.unionMoves(ops, x)
	ops = p.mergeMoves(ops, x)
	ops = p.applyMoves(ops, x)
	p.scratch.ops = ops
	return ops
}

// applyAll applies every candidate operator to the parent's database and
// returns the resulting canonical states positionally — nil where the
// operator was inapplicable or a no-op — so the caller assembles moves in
// candidate order; the slice is the run's scratch, valid until the next
// expansion. An operator that returns its input database (µ when nothing
// coalesces) is a no-op without hashing; any other result is a no-op when
// its key equals the parent's. Every other result is interned in the run's
// state table, and the call that creates a state also estimates it
// (prewarm); agg is the parent's aggregate, nil without an incremental
// evaluator.
//
// A ρ^att or π̄ candidate is keyed before it is built (preview): a key
// equal to the parent's is a no-op, a key the table holds is that
// canonical state, and a new key becomes a pending state with one map
// write. A pending state whose estimate can come from its edit — an
// incremental evaluator and a Derivable child — stays pending until the
// search reads its database; any other is built at once through the same
// accessor. Every candidate takes one SiteOpApply fault-hook hit and emits
// one EvOpApply and one apply-latency sample, timed over its preview plus
// any build made here.
//
// A panic inside an operator apply or a heuristic pre-warm is recovered and
// returned as a *search.PanicError naming the operator — never propagated,
// so a poisoned operator or heuristic fails the expansion (and through it
// the run) instead of killing the process.
func (p *mappingProblem) applyAll(parent *dbState, agg heuristic.Agg, ops []fira.Op) (states []*dbState, err error) {
	db := parent.database()
	timed := p.met != nil || p.tracer != nil
	i := 0
	defer func() {
		if r := recover(); r != nil {
			pe := search.NewPanicError(fmt.Sprintf("successor expansion (op %s)", ops[i]), r)
			if p.tracer != nil {
				p.tracer.Event(obs.Event{Kind: obs.EvPanic, Label: pe.Origin, Err: pe})
			}
			states, err = nil, pe
		}
	}()
	states = slices.Grow(p.scratch.states[:0], len(ops))[:len(ops)]
	clear(states)
	p.scratch.states = states
	for ; i < len(ops); i++ {
		if p.fault != nil {
			p.fault(faults.SiteOpApply, ops[i].String())
		}
		var start time.Time
		if timed {
			start = time.Now()
		}
		var (
			ns      *dbState
			created bool
			next    *relation.Database
			aerr    error
		)
		pv, keyed := preview(ops[i], db)
		switch {
		case !keyed:
			next, aerr = ops[i].Apply(db, p.reg)
		case string(pv.key[:]) == parent.key:
			// A no-op: the child is the parent.
		default:
			if ns = p.table[string(pv.key[:])]; ns == nil {
				ns, created = p.table.pend(parent, ops[i], pv), true
				if agg == nil || !pv.hash.Derivable() {
					ns.database()
				}
			}
		}
		var elapsed time.Duration
		if timed {
			elapsed = time.Since(start)
			p.met.applyLatency(ops[i], elapsed)
		}
		if !keyed && aerr == nil && next != nil && next != db {
			if key := next.Key(); key != parent.key {
				ns, created = p.table.intern(next, key)
			}
		}
		if p.tracer != nil {
			p.tracer.Event(obs.Event{
				Kind: obs.EvOpApply, Label: ops[i].String(),
				Goal: ns != nil, Elapsed: elapsed,
			})
		}
		if ns == nil {
			continue
		}
		p.prewarm(db, agg, ns, created)
		states[i] = ns
	}
	return states, nil
}

// childPreview is a candidate's child keyed before it is built: the child
// database's key and the previewed hash of the relation the operator
// rebuilds, with what the preview resolved.
type childPreview struct {
	key  [16]byte
	hash relation.ChildHash
}

// preview keys op's child from the parent's database when op is a ρ^att or
// π̄; ok is false otherwise, and when the operator's preview declines
// (fira's ChildKey methods), in which case the caller builds the child.
func preview(op fira.Op, db *relation.Database) (c childPreview, ok bool) {
	switch o := op.(type) {
	case fira.RenameAtt:
		c.key, c.hash, ok = o.ChildKey(db)
	case fira.Drop:
		c.key, c.hash, ok = o.ChildKey(db)
	}
	return c, ok
}

// prewarm estimates a successor as it is created, so the search loop's
// subsequent h() call is a field read. The lookup counts as an estimate hit
// when the state was already in the table — its creator estimated it, or is
// doing so — and as a miss when this call created it and so computes the
// estimate, from what the operator changed when the evaluator is
// incremental.
func (p *mappingProblem) prewarm(parent *relation.Database, agg heuristic.Agg, ns *dbState, created bool) {
	p.lookup(!created)
	if created {
		p.publish(ns, p.evaluate(parent, agg, ns))
	}
}

// h is the run's search.Heuristic: a read of the state's estimate. The
// lookup misses only for the start state, which it evaluates from scratch.
func (p *mappingProblem) h(s search.State) int {
	ds := s.(*dbState)
	if ds.estimated {
		p.lookup(true)
		return ds.h
	}
	p.lookup(false)
	return p.publish(ds, p.evaluate(nil, nil, ds))
}

// lookup records one estimate lookup in the heuristic.cache counters and,
// with a tracer, as an EvCacheHit/EvCacheMiss event.
func (p *mappingProblem) lookup(hit bool) {
	p.met.estimate(hit)
	if p.tracer != nil {
		kind := obs.EvCacheMiss
		if hit {
			kind = obs.EvCacheHit
		}
		p.tracer.Event(obs.Event{Kind: kind, Label: p.hLabel})
	}
}

// evaluate computes s's estimate: from the parent's aggregate when agg is
// non-nil, and from scratch otherwise. A pending state is estimated from
// its edit of the previewed relation's fragment (EstimateEdit); a built
// state from the fragments of the relations its database replaced
// (EstimateDelta). It is the fault-injection site for heuristic evaluation
// and is timed into hEval.
func (p *mappingProblem) evaluate(parent *relation.Database, agg heuristic.Agg, s *dbState) int {
	if p.fault != nil {
		p.fault(faults.SiteHeuristicEval, p.hLabel)
	}
	var start time.Time
	if p.hEval != nil {
		start = time.Now()
	}
	var h int
	sc := &p.scratch
	switch {
	case agg == nil:
		h = p.est.Estimate(s.database())
	case s.db == nil:
		h = p.inc.EstimateEdit(agg, s.hash.Edit())
	default:
		sc.removed, sc.added = relation.AppendDiff(sc.removed[:0], sc.added[:0], parent, s.db)
		sc.remF, sc.addF = appendFragments(sc.remF[:0], sc.removed), appendFragments(sc.addF[:0], sc.added)
		h = p.inc.EstimateDelta(agg, heuristic.Delta{Removed: sc.remF, Added: sc.addF})
	}
	if p.hEval != nil {
		p.hEval.Observe(time.Since(start))
	}
	return h
}

// appendFragments appends the TNF fragment of every relation in rels to dst.
func appendFragments(dst []*relation.Fragment, rels []*relation.Relation) []*relation.Fragment {
	for _, r := range rels {
		dst = append(dst, r.TNFFragment())
	}
	return dst
}

// publish installs h as the estimate of a state that has none and returns
// it.
func (p *mappingProblem) publish(s *dbState, h int) int {
	s.h, s.estimated = h, true
	p.met.entry()
	return h
}

// missingFrom appends to dst the members of wantSorted that have reports
// absent, in order. The want side is always a fixed target token list, so
// sorting happened once at problem construction; per-expansion calls just
// filter into the run's scratch.
func missingFrom(dst, wantSorted []string, have func(string) bool) []string {
	for _, k := range wantSorted {
		if !have(k) {
			dst = append(dst, k)
		}
	}
	return dst
}

// sortedKeys returns the keys of the set in sorted order. Move generators
// that enumerate a full token set use this (precomputed once per problem)
// instead of the sortedMissing(set, empty) idiom, which rebuilt the slice on
// every call.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// renameRelMoves proposes ρ^rel: rename a state relation that the target
// does not know to a target relation name the state is missing.
func (p *mappingProblem) renameRelMoves(ops []fira.Op, x *expCtx) []fira.Op {
	missing := missingFrom(p.scratch.missingRels[:0], p.tRelsSorted, x.hasRel)
	p.scratch.missingRels = missing
	if len(missing) == 0 {
		// Obviously inapplicable: every target relation name is present.
		return ops
	}
	for _, r := range x.rels {
		if p.tRels[r.Name()] {
			continue // already a target relation name; renaming it away hurts
		}
		for _, to := range missing {
			if !p.relRenameEvidence(r, to) {
				continue
			}
			ops = append(ops, fira.RenameRel{From: r.Name(), To: to})
		}
	}
	return ops
}

// relRenameEvidence is the relation-level analogue of renameEvidence: a
// rename R→N is supported when R shares at least one data value with the
// target relation N, or either side is empty of values.
func (p *mappingProblem) relRenameEvidence(r *relation.Relation, to string) bool {
	tv := p.tRelValSyms[to]
	if len(tv) == 0 || r.Len() == 0 {
		return true
	}
	for j := 0; j < r.Arity(); j++ {
		for _, s := range r.Column(j) {
			if tv[s] {
				return true
			}
		}
	}
	return false
}

// renameAttMoves proposes ρ^att: rename an attribute the target does not
// know to a target attribute name missing from the state (schema matching).
// Each missing attribute's target value symbols are resolved once per
// expansion, not once per (column, missing attribute) pair.
func (p *mappingProblem) renameAttMoves(ops []fira.Op, x *expCtx) []fira.Op {
	sc := &p.scratch
	missing := missingFrom(sc.missingAtts[:0], p.tAttrsSorted, x.hasAttr)
	sc.missingAtts = missing
	if len(missing) == 0 {
		// The paper's §2.3 example rule: all target attribute names are
		// already present, so attribute renaming cannot help.
		return ops
	}
	evidence := sc.attEvidence[:0]
	for _, to := range missing {
		evidence = append(evidence, p.tAttrValSyms[to])
	}
	sc.attEvidence = evidence
	for _, r := range x.rels {
		for j, a := range r.AttrView() {
			if p.tAttrs[a] {
				continue // a is already a target attribute name
			}
			for k, to := range missing {
				if !renameEvidence(r, j, evidence[k]) {
					continue
				}
				ops = append(ops, fira.RenameAtt{Rel: r.Name(), From: a, To: to})
			}
		}
	}
	return ops
}

// renameEvidence reports whether renaming column j of r to a target
// attribute whose target value symbols are tv is supported by the critical
// instances: some value in the column also appears under that attribute in
// the target (or either side carries no values at all, leaving the rename
// unconstrained). Without this rule every missing target attribute pairs
// with every source column and matching degenerates into exploring all n!
// assignments — the Rosetta Stone principle (§2.2) says the example values
// are exactly the evidence that disambiguates.
func renameEvidence(r *relation.Relation, j int, tv map[relation.Symbol]bool) bool {
	if len(tv) == 0 || r.Len() == 0 {
		return true
	}
	// Existence check over the raw symbol column: this runs once per
	// (column, missing-attribute) pair on every expanded state.
	for _, s := range r.Column(j) {
		if tv[s] {
			return true
		}
	}
	return false
}

// dropMoves proposes π̄: drop a column the target does not use. Dropping is
// never needed for containment alone, but it enables merges (Example 2).
func (p *mappingProblem) dropMoves(ops []fira.Op, x *expCtx) []fira.Op {
	for _, r := range x.rels {
		if r.Arity() <= 1 {
			continue
		}
		for _, a := range r.AttrView() {
			if p.tAttrs[a] {
				continue // target needs this attribute
			}
			ops = append(ops, fira.Drop{Rel: r.Name(), Attr: a})
		}
	}
	return ops
}

// promoteMoves proposes ↑: promote a column whose values include target
// attribute names, pairing it with a value column whose values the target
// knows.
func (p *mappingProblem) promoteMoves(ops []fira.Op, x *expCtx) []fira.Op {
	for _, r := range x.rels {
		attrs := r.AttrView()
		for nj, nameAttr := range attrs {
			if !p.columnFeedsTargetAttrs(r, nj) {
				continue
			}
			for vj, valAttr := range attrs {
				if vj == nj {
					continue
				}
				if !p.columnFeedsTargetValues(r, vj) {
					continue
				}
				ops = append(ops, fira.Promote{Rel: r.Name(), NameAttr: nameAttr, ValueAttr: valAttr})
			}
		}
	}
	return ops
}

// columnFeedsTargetAttrs reports whether some value of the column is a
// target attribute name not already an attribute of r (so promotion could
// create a useful column).
func (p *mappingProblem) columnFeedsTargetAttrs(r *relation.Relation, j int) bool {
	for _, s := range r.DistinctSymbols(j) {
		if p.tAttrSymSet[s] && !r.HasAttrSymbol(s) {
			return true
		}
	}
	return false
}

// columnFeedsTargetValues reports whether some value of the column occurs
// among the target's data values.
func (p *mappingProblem) columnFeedsTargetValues(r *relation.Relation, j int) bool {
	for _, s := range r.DistinctSymbols(j) {
		if p.tValSymSet[s] {
			return true
		}
	}
	return false
}

// demoteMoves proposes ↓ when the state's metadata (relation or attribute
// names) appears among the target's data values, i.e. metadata must become
// data.
func (p *mappingProblem) demoteMoves(ops []fira.Op, x *expCtx) []fira.Op {
	for _, r := range x.rels {
		if r.HasAttr(fira.DemoteRelCol) || r.HasAttr(fira.DemoteAttCol) {
			continue
		}
		useful := p.tVals[r.Name()]
		for _, a := range r.AttrView() {
			if p.tVals[a] {
				useful = true
				break
			}
		}
		if !useful {
			continue
		}
		ops = append(ops, fira.Demote{Rel: r.Name()})
	}
	return ops
}

// derefMoves proposes →: dereference a column whose values all name
// attributes of the relation into a fresh target attribute.
func (p *mappingProblem) derefMoves(ops []fira.Op, x *expCtx) []fira.Op {
	for _, r := range x.rels {
		for pj, ptr := range r.AttrView() {
			vals := r.DistinctSymbols(pj)
			if len(vals) == 0 {
				continue
			}
			allAttrs := true
			for _, s := range vals {
				if !r.HasAttrSymbol(s) {
					allAttrs = false
					break
				}
			}
			if !allAttrs {
				continue
			}
			// Every target attribute the relation lacks is a candidate
			// output column. The former sortedMissing(p.tAttrs, empty-map)
			// call here enumerated the same full set, but rebuilt and
			// re-sorted it per (relation, pointer column) pair, and read as
			// if it filtered against the relation — which only the HasAttr
			// check below actually does.
			for _, out := range p.tAttrsSorted {
				if r.HasAttr(out) {
					continue
				}
				ops = append(ops, fira.Deref{Rel: r.Name(), PtrAttr: ptr, NewAttr: out})
			}
		}
	}
	return ops
}

// partitionMoves proposes ℘ on columns whose values include target relation
// names.
func (p *mappingProblem) partitionMoves(ops []fira.Op, x *expCtx) []fira.Op {
	for _, r := range x.rels {
		for j, a := range r.AttrView() {
			useful := false
			for _, s := range r.DistinctSymbols(j) {
				if p.tRelSymSet[s] {
					useful = true
					break
				}
			}
			if !useful {
				continue
			}
			ops = append(ops, fira.Partition{Rel: r.Name(), Attr: a})
		}
	}
	return ops
}

// productMoves proposes × between attribute-disjoint relations when some
// target relation spans attributes of both operands.
func (p *mappingProblem) productMoves(ops []fira.Op, x *expCtx) []fira.Op {
	rels := x.rels
	for i, l := range rels {
		for j, r := range rels {
			if i == j {
				continue
			}
			if !attrDisjoint(l, r) {
				continue
			}
			if !p.targetSpans(l, r) {
				continue
			}
			ops = append(ops, fira.Product{Left: l.Name(), Right: r.Name()})
		}
	}
	return ops
}

func attrDisjoint(l, r *relation.Relation) bool {
	for _, a := range r.AttrView() {
		if l.HasAttr(a) {
			return false
		}
	}
	return true
}

// targetSpans reports whether some target relation uses at least one
// attribute from each operand, making their product plausibly useful.
func (p *mappingProblem) targetSpans(l, r *relation.Relation) bool {
	for _, t := range p.target.RelationView() {
		hasL, hasR := false, false
		for _, a := range t.AttrView() {
			if l.HasAttr(a) {
				hasL = true
			}
			if r.HasAttr(a) {
				hasR = true
			}
		}
		if hasL && hasR {
			return true
		}
	}
	return false
}

// unionMoves proposes ∪ (outer union, the L extension inverse to ℘) when
// the state has more relations than the target needs: two relations whose
// names the target does not use, with identical attribute sets, collapse
// into one.
func (p *mappingProblem) unionMoves(ops []fira.Op, x *expCtx) []fira.Op {
	if x.db.Len() <= p.target.Len() {
		return ops
	}
	rels := x.rels
	for i, l := range rels {
		for j, r := range rels {
			if i == j {
				continue
			}
			if p.tRels[l.Name()] || p.tRels[r.Name()] {
				continue // the target still wants these relations
			}
			if !sameAttrSet(l, r) {
				continue
			}
			ops = append(ops, fira.Union{Left: l.Name(), Right: r.Name()})
		}
	}
	return ops
}

func sameAttrSet(l, r *relation.Relation) bool {
	if l.Arity() != r.Arity() {
		return false
	}
	for _, a := range r.AttrView() {
		if !l.HasAttr(a) {
			return false
		}
	}
	return true
}

// mergeMoves proposes µ on relations that contain absent (empty) cells —
// the only situation in which merging changes anything.
func (p *mappingProblem) mergeMoves(ops []fira.Op, x *expCtx) []fira.Op {
	for _, r := range x.rels {
		if !r.HasEmptyCell() {
			continue
		}
		for _, a := range r.AttrView() {
			ops = append(ops, fira.Merge{Rel: r.Name(), Attr: a})
		}
	}
	return ops
}

// applyMoves proposes λ for each user-indicated correspondence applicable
// to a state relation (§4): the relation covers the input attributes, lacks
// the output attribute, and the output attribute is one the target wants.
func (p *mappingProblem) applyMoves(ops []fira.Op, x *expCtx) []fira.Op {
	for _, c := range p.corrs {
		for _, r := range x.rels {
			if c.Rel != "" && c.Rel != r.Name() {
				continue
			}
			if r.HasAttr(c.Out) {
				continue
			}
			if !p.tAttrs[c.Out] {
				continue
			}
			ok := true
			for _, in := range c.In {
				if !r.HasAttr(in) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ops = append(ops, fira.Apply{Rel: r.Name(), Func: c.Func, In: c.In, Out: c.Out})
		}
	}
	return ops
}
