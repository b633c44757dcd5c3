package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
	prune  bool // apply the paper's "obviously inapplicable" rules

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
	// else. memo enables reading and publishing each state's move list
	// (dbState.moves); it is off only under a FaultHook, whose injected
	// faults must fire on every expansion to stay deterministic.
	//
	// Sampling semantics: because memoized expansions bypass the operator
	// pipeline, the per-operator apply metrics (core.op.apply.seconds and
	// friends) and the EvOpApply trace stream observe only memo misses — in
	// effect the first expansion of each distinct state. The
	// core.succmemo.hits/.misses counters and the EvMemoHit/EvMemoMiss
	// events carry the denominator, so consumers can reconstruct totals (a
	// profile's "operator table samples misses only" line makes the same
	// point).
	table stateTable
	memo  bool

	// Expansion machinery. workers bounds the pool that applies candidate
	// operators; est lets the same pool estimate every state it creates, so
	// the search loop's h() calls are field reads. inc is est's
	// incremental capability view when it has one (and the run hasn't
	// disabled it): successors are then estimated by delta-merging the
	// replaced relation's fragment against the parent's aggregate instead
	// of re-encoding the state.
	workers int
	est     heuristic.Evaluator
	inc     heuristic.IncrementalEvaluator

	// met, when non-nil, records per-operator-kind proposal/application
	// counts, apply-latency histograms, worker-pool utilization, and memo
	// and estimate lookups. Nil when the run has no metrics registry,
	// keeping the hot path free of map lookups.
	met *opMetrics
	// tracer, when non-nil, receives one EvOpApply event per candidate
	// operator application, carrying the operator and its apply latency,
	// plus the memo and estimate lookup events.
	tracer obs.Tracer
	// hEval, when non-nil, times heuristic evaluations.
	hEval *obs.Histogram
	// fault, when non-nil, is the test-only fault-injection hook
	// (Options.FaultHook); hLabel is the label it receives at heuristic
	// evaluations, and the label of the estimate lookup metrics and events.
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
		prune:        !opts.DisablePruning,
		workers:      opts.Workers,
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
		// The memo stays on under a Tracer: a traced run that re-applied
		// every operator on every revisit was two orders of magnitude slower
		// than the run it claimed to describe, and silently out-sampled the
		// metrics-only configuration. The miss-only sampling this creates
		// for per-op apply events is documented on table and surfaced
		// through EvMemoHit/EvMemoMiss.
		memo: opts.FaultHook == nil,
	}
	p.tAttrsSorted = sortedKeys(p.tAttrs)
	p.tRelsSorted = sortedKeys(p.tRels)
	if opts.ParallelSearch {
		// The shard fleet is the parallelism: running each shard's
		// expansions through a successor pool on top of it would
		// oversubscribe the CPUs, so each shard applies operators inline.
		p.workers = 1
	}
	p.est = heuristic.New(opts.Heuristic, target, opts.K)
	if opts.Metrics != nil {
		p.hEval = opts.Metrics.Histogram(obs.Name("heuristic.eval.seconds", "heuristic", hLabel))
	}
	if !opts.DisableIncremental {
		p.inc, _ = heuristic.AsIncremental(p.est)
	}
	// The target's token sets double as symbol sets: every name and value in
	// them is (re-)interned here, once, so state columns can be probed by
	// symbol. Any string a state can ever hold under these sets is already
	// interned — FIRA operators move existing strings around, they never
	// synthesize new ones.
	p.tAttrSymSet = internSet(p.tAttrs)
	p.tRelSymSet = internSet(p.tRels)
	p.tValSymSet = internSet(p.tVals)
	for _, r := range target.Relations() {
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
// reads it. Racing goroutines compute the same verdict, so the plain store
// is safe.
func (p *mappingProblem) IsGoal(s search.State) bool {
	ds := s.(*dbState)
	if v := ds.goal.Load(); v != verdictUntested {
		return v == verdictGoal
	}
	goal := p.goalIx.Contains(ds.db)
	v := verdictNotGoal
	if goal {
		v = verdictGoal
	}
	ds.goal.Store(v)
	return goal
}

// Successors implements search.Problem. Operator arguments are instantiated
// from names and values present in the current state and the target
// instance, giving the branching factor proportional to |s| + |t| that the
// paper reports. Moves that fail to apply or that do not change the state
// are dropped. Candidate application and heuristic estimation run on the
// worker pool; the returned move order is identical for any worker count.
// A state's moves are computed once and then read from the state.
func (p *mappingProblem) Successors(s search.State) ([]search.Move, error) {
	parent := s.(*dbState)
	if p.memo {
		if moves := parent.moves.Load(); moves != nil {
			p.met.memo(true)
			if p.tracer != nil {
				p.tracer.Event(obs.Event{Kind: obs.EvMemoHit})
			}
			return *moves, nil
		}
		p.met.memo(false)
		if p.tracer != nil {
			p.tracer.Event(obs.Event{Kind: obs.EvMemoMiss})
		}
	}
	var agg heuristic.Agg
	if p.inc != nil {
		if e := parent.est.Load(); e != nil {
			agg = e.agg
		}
		if agg == nil {
			// The parent's estimate was computed from scratch (the start
			// state, a state forged by the cycle-check ablation): seed an
			// aggregate for this expansion so its successors are deltas.
			agg = p.inc.Seed(parent.db)
		}
	}
	ops := p.candidateOps(parent.db)
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
	if p.memo {
		parent.moves.Store(&moves)
	}
	return moves, nil
}

// expCtx is the per-expansion view of a state shared by every move
// generator: the sorted relation slice and the name sets, each computed once
// per expansion instead of once per generator.
type expCtx struct {
	db       *relation.Database
	rels     []*relation.Relation
	relNames map[string]bool
	attrs    map[string]bool
}

func newExpCtx(db *relation.Database) *expCtx {
	return &expCtx{
		db:       db,
		rels:     db.Relations(),
		relNames: db.RelationNames(),
		attrs:    db.AttrNames(),
	}
}

// candidateOps instantiates every candidate operator for the state,
// optimistically: operators enforce their own preconditions at Apply time.
func (p *mappingProblem) candidateOps(db *relation.Database) []fira.Op {
	x := newExpCtx(db)
	var ops []fira.Op
	ops = append(ops, p.renameRelMoves(x)...)
	ops = append(ops, p.renameAttMoves(x)...)
	ops = append(ops, p.dropMoves(x)...)
	ops = append(ops, p.promoteMoves(x)...)
	ops = append(ops, p.demoteMoves(x)...)
	ops = append(ops, p.derefMoves(x)...)
	ops = append(ops, p.partitionMoves(x)...)
	ops = append(ops, p.productMoves(x)...)
	ops = append(ops, p.unionMoves(x)...)
	ops = append(ops, p.mergeMoves(x)...)
	ops = append(ops, p.applyMoves(x)...)
	return ops
}

// minParallelOps is the candidate-count threshold below which the worker
// pool costs more in synchronization than it saves in application time.
const minParallelOps = 8

// applyAll applies every candidate operator to the parent's database and
// returns the resulting canonical states positionally — nil where the
// operator was inapplicable or a no-op — so the caller assembles moves in a
// deterministic order regardless of worker count. An operator that returns
// its input database (µ when nothing coalesces) is a no-op without hashing;
// any other result is a no-op when its key equals the parent's. Every other
// result is interned in the run's state table, and the call that creates a
// state also estimates it (prewarm); agg is the parent's aggregate for
// delta-merged estimates, nil without an incremental evaluator. With more
// than one worker, operators are distributed over a bounded pool through an
// atomic work-stealing counter: this is the concurrent successor generation
// plus concurrent heuristic evaluation of the expansion step. Databases are
// immutable copy-on-write structures and the Estimator is immutable, so the
// only shared mutable state is the results slice (disjoint indices) and the
// state table (locked, with atomically published estimates).
//
// A panic inside an operator apply or a heuristic pre-warm is recovered on
// the worker that hit it and returned as a *search.PanicError — never
// propagated, so a poisoned operator or heuristic fails the expansion (and
// through it the run) instead of killing the process. The first panic wins;
// remaining workers drain their queued operators and exit normally.
func (p *mappingProblem) applyAll(parent *dbState, agg heuristic.Agg, ops []fira.Op) ([]*dbState, error) {
	db := parent.db
	states := make([]*dbState, len(ops))
	timed := p.met != nil || p.tracer != nil
	var panicked atomic.Pointer[search.PanicError]
	// successor interns a result that changes the state.
	successor := func(next *relation.Database, err error) (*dbState, bool) {
		if err != nil || next == db {
			return nil, false
		}
		key := next.Key()
		if key == parent.key {
			return nil, false
		}
		return p.table.intern(next, key)
	}
	apply := func(i int) {
		if p.fault != nil {
			p.fault(faults.SiteOpApply, ops[i].String())
		}
		var ns *dbState
		var created bool
		if !timed {
			ns, created = successor(ops[i].Apply(db, p.reg))
		} else {
			start := time.Now()
			next, err := ops[i].Apply(db, p.reg)
			elapsed := time.Since(start)
			p.met.applyLatency(ops[i], elapsed)
			ns, created = successor(next, err)
			if p.tracer != nil {
				p.tracer.Event(obs.Event{
					Kind: obs.EvOpApply, Label: ops[i].String(),
					Goal: ns != nil, Elapsed: elapsed,
				})
			}
		}
		if ns == nil {
			return
		}
		p.prewarm(db, agg, ns, created)
		states[i] = ns
	}
	applySafe := func(worker, i int) {
		defer func() {
			if r := recover(); r != nil {
				pe := search.NewPanicError(fmt.Sprintf("successor worker %d (op %s)", worker, ops[i]), r)
				panicked.CompareAndSwap(nil, pe)
				if p.tracer != nil {
					p.tracer.Event(obs.Event{Kind: obs.EvPanic, Label: pe.Origin, Err: pe})
				}
			}
		}()
		apply(i)
	}
	workers := p.workers
	if workers > len(ops) {
		workers = len(ops)
	}
	if workers <= 1 || len(ops) < minParallelOps {
		p.met.poolExpansion(1, len(ops))
		for i := range ops {
			applySafe(0, i)
			if panicked.Load() != nil {
				break
			}
		}
		if pe := panicked.Load(); pe != nil {
			return nil, pe
		}
		return states, nil
	}
	p.met.poolExpansion(workers, len(ops))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) || panicked.Load() != nil {
					return
				}
				applySafe(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		return nil, pe
	}
	return states, nil
}

// prewarm estimates a successor as it is created, so the search loop's
// subsequent h() call is a field read. The lookup counts as an estimate hit
// when the state was already in the table — its creator estimated it, or is
// doing so — and as a miss when this call created it and so computes the
// estimate. With an incremental evaluator the miss delta-merges the replaced
// relations' fragments against the parent's aggregate, and the estimate
// keeps the child's aggregate so the child's own expansion starts
// incremental too.
func (p *mappingProblem) prewarm(parent *relation.Database, agg heuristic.Agg, ns *dbState, created bool) {
	p.lookup(!created)
	if created {
		p.publish(ns, p.evaluate(parent, agg, ns.db))
	}
}

// h is the run's search.Heuristic: a read of the state's published
// estimate. The lookup misses for the start state, for states forged by the
// cycle-check ablation, and, under ParallelSearch, for a state whose
// creating shard has not yet published; a miss evaluates from scratch.
func (p *mappingProblem) h(s search.State) int {
	ds := s.(*dbState)
	if e := ds.est.Load(); e != nil {
		p.lookup(true)
		return e.h
	}
	p.lookup(false)
	return p.publish(ds, p.evaluate(nil, nil, ds.db))
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

// evaluate computes db's estimate, by delta-merge from the parent's
// aggregate when agg is non-nil and from scratch otherwise. It is the
// fault-injection site for heuristic evaluation and is timed into hEval.
func (p *mappingProblem) evaluate(parent *relation.Database, agg heuristic.Agg, db *relation.Database) *estimate {
	if p.fault != nil {
		p.fault(faults.SiteHeuristicEval, p.hLabel)
	}
	var start time.Time
	if p.hEval != nil {
		start = time.Now()
	}
	e := &estimate{}
	if agg != nil {
		removed, added := relation.Diff(parent, db)
		e.h, e.agg = p.inc.EstimateDelta(agg, heuristic.Delta{Removed: removed, Added: added})
	} else {
		e.h = p.est.Estimate(db)
	}
	if p.hEval != nil {
		p.hEval.Observe(time.Since(start))
	}
	return e
}

// publish installs e as the state's estimate unless one is already there
// and returns the state's h. Estimates are deterministic per key, so a
// writer that loses the race would have published the same value.
func (p *mappingProblem) publish(s *dbState, e *estimate) int {
	if s.est.CompareAndSwap(nil, e) {
		p.met.entry()
	}
	return e.h
}

// hasAll reports whether every key of want is present in have.
func hasAll(want, have map[string]bool) bool {
	for k := range want {
		if !have[k] {
			return false
		}
	}
	return true
}

// missingFrom returns the members of wantSorted absent from have, in order.
// The want side is always a fixed target token list, so sorting happened
// once at problem construction; per-expansion calls just filter.
func missingFrom(wantSorted []string, have map[string]bool) []string {
	out := make([]string, 0, len(wantSorted))
	for _, k := range wantSorted {
		if !have[k] {
			out = append(out, k)
		}
	}
	return out
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
func (p *mappingProblem) renameRelMoves(x *expCtx) []fira.Op {
	if p.prune && hasAll(p.tRels, x.relNames) {
		// Obviously inapplicable: every target relation name is present.
		return nil
	}
	missing := missingFrom(p.tRelsSorted, x.relNames)
	var ops []fira.Op
	for _, r := range x.rels {
		if p.prune && p.tRels[r.Name()] {
			continue // already a target relation name; renaming it away hurts
		}
		for _, to := range missing {
			if p.prune && !p.relRenameEvidence(r, to) {
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
func (p *mappingProblem) renameAttMoves(x *expCtx) []fira.Op {
	if p.prune && hasAll(p.tAttrs, x.attrs) {
		// The paper's §2.3 example rule: all target attribute names are
		// already present, so attribute renaming cannot help.
		return nil
	}
	missing := missingFrom(p.tAttrsSorted, x.attrs)
	var ops []fira.Op
	for _, r := range x.rels {
		for _, a := range r.AttrView() {
			if p.prune && p.tAttrs[a] {
				continue // a is already a target attribute name
			}
			for _, to := range missing {
				if p.prune && !p.renameEvidence(r, a, to) {
					continue
				}
				ops = append(ops, fira.RenameAtt{Rel: r.Name(), From: a, To: to})
			}
		}
	}
	return ops
}

// renameEvidence reports whether renaming column a of r to target attribute
// "to" is supported by the critical instances: some value under a also
// appears under "to" in the target (or either side carries no values at
// all, leaving the rename unconstrained). Without this rule every missing
// target attribute pairs with every source column and matching degenerates
// into exploring all n! assignments — the Rosetta Stone principle (§2.2)
// says the example values are exactly the evidence that disambiguates.
func (p *mappingProblem) renameEvidence(r *relation.Relation, a, to string) bool {
	tv := p.tAttrValSyms[to]
	if len(tv) == 0 || r.Len() == 0 {
		return true
	}
	j := r.AttrIndex(a)
	if j < 0 {
		return false
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
func (p *mappingProblem) dropMoves(x *expCtx) []fira.Op {
	var ops []fira.Op
	for _, r := range x.rels {
		if r.Arity() <= 1 {
			continue
		}
		for _, a := range r.AttrView() {
			if p.prune && p.tAttrs[a] {
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
func (p *mappingProblem) promoteMoves(x *expCtx) []fira.Op {
	var ops []fira.Op
	for _, r := range x.rels {
		attrs := r.AttrView()
		for nj, nameAttr := range attrs {
			if p.prune && !p.columnFeedsTargetAttrs(r, nj) {
				continue
			}
			for vj, valAttr := range attrs {
				if vj == nj {
					continue
				}
				if p.prune && !p.columnFeedsTargetValues(r, vj) {
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
func (p *mappingProblem) demoteMoves(x *expCtx) []fira.Op {
	var ops []fira.Op
	for _, r := range x.rels {
		if r.HasAttr(fira.DemoteRelCol) || r.HasAttr(fira.DemoteAttCol) {
			continue
		}
		if p.prune {
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
		}
		ops = append(ops, fira.Demote{Rel: r.Name()})
	}
	return ops
}

// derefMoves proposes →: dereference a column whose values all name
// attributes of the relation into a fresh target attribute.
func (p *mappingProblem) derefMoves(x *expCtx) []fira.Op {
	var ops []fira.Op
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
func (p *mappingProblem) partitionMoves(x *expCtx) []fira.Op {
	var ops []fira.Op
	for _, r := range x.rels {
		for j, a := range r.AttrView() {
			if p.prune {
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
			}
			ops = append(ops, fira.Partition{Rel: r.Name(), Attr: a})
		}
	}
	return ops
}

// productMoves proposes × between attribute-disjoint relations when some
// target relation spans attributes of both operands.
func (p *mappingProblem) productMoves(x *expCtx) []fira.Op {
	rels := x.rels
	var ops []fira.Op
	for i, l := range rels {
		for j, r := range rels {
			if i == j {
				continue
			}
			if !attrDisjoint(l, r) {
				continue
			}
			if p.prune && !p.targetSpans(l, r) {
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
	for _, t := range p.target.Relations() {
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
// into one. Without pruning, any ordered pair of relations qualifies.
func (p *mappingProblem) unionMoves(x *expCtx) []fira.Op {
	if p.prune && x.db.Len() <= p.target.Len() {
		return nil
	}
	rels := x.rels
	var ops []fira.Op
	for i, l := range rels {
		for j, r := range rels {
			if i == j {
				continue
			}
			if p.prune {
				if p.tRels[l.Name()] || p.tRels[r.Name()] {
					continue // the target still wants these relations
				}
				if !sameAttrSet(l, r) {
					continue
				}
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
func (p *mappingProblem) mergeMoves(x *expCtx) []fira.Op {
	var ops []fira.Op
	for _, r := range x.rels {
		if p.prune && !r.HasEmptyCell() {
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
func (p *mappingProblem) applyMoves(x *expCtx) []fira.Op {
	var ops []fira.Op
	for _, c := range p.corrs {
		for _, r := range x.rels {
			if c.Rel != "" && c.Rel != r.Name() {
				continue
			}
			if r.HasAttr(c.Out) {
				continue
			}
			if p.prune && !p.tAttrs[c.Out] {
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
