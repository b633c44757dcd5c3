package core

import (
	"context"
	"errors"
	"testing"
	"unsafe"

	"tupelo/internal/datagen"
	"tupelo/internal/fira"
	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// examineRecorder wraps a mapping problem to record every state the search
// examines (goal-tests).
type examineRecorder struct {
	*mappingProblem
	examined map[*dbState]bool
}

func (r *examineRecorder) IsGoal(s search.State) bool {
	r.examined[s.(*dbState)] = true
	return r.mappingProblem.IsGoal(s)
}

// TestMemoTableMatchesScratch checks the facts the state table hands the
// search against recomputation. For every state in the table, entered or
// not, the published h equals a from-scratch estimate, and the state is
// the table's canonical state for its key, which both the state's database
// and a Clone of it recompute. For every state the search examined, the
// stored goal verdict equals the nested-loop reference scan
// (Database.Contains, not the containment index that produced it), every
// relation's memoized fragment (derived and seeded where the state was
// built on entry) equals a clone's, the published move list equals the
// state's candidates built one by one (builtChildren), and every move's
// successor is the table's canonical state. It covers the tree searches
// and A*, and every paper heuristic under IDA* and RBFS on matching6:
// incremental estimates — from a previewed child's edit or a built child's
// delta — must equal from-scratch ones at every state, not only in the end
// counts.
//
// The reference builds every candidate with its own Apply and keys it with
// Database.Key, with no preview and no state table, so every comparison is
// also a differential test of previewed ρ^att and π̄ children against built
// ones: matching12 is wider than the attribute scan (attrScanMax), and the
// Inventory task's λ operators and twelve-column relation exercise the
// wide-schema lookups on both sides.
func TestMemoTableMatchesScratch(t *testing.T) {
	flightsSrc, flightsTgt, err := datagen.FlightsScaled(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchSrc, matchTgt := datagen.MustMatchingPair(5)
	wideSrc, wideTgt := datagen.MustMatchingPair(12)
	inv := datagen.Inventory()
	invSrc, invTgt, invCorrs, err := inv.Task(3)
	if err != nil {
		t.Fatal(err)
	}
	type instance struct {
		name     string
		src, tgt *relation.Database
		opts     Options
		algos    []search.Algorithm
	}
	all := []search.Algorithm{search.IDA, search.RBFS, search.AStar}
	instances := []instance{
		{"flights3x2", flightsSrc, flightsTgt, Options{}, all},
		{"matching5", matchSrc, matchTgt, Options{}, all},
		{"matching12", wideSrc, wideTgt, Options{Heuristic: heuristic.H1}, all},
		{"inventory3", invSrc, invTgt, Options{Registry: inv.Registry, Correspondences: invCorrs}, all},
	}
	src6, tgt6 := datagen.MustMatchingPair(6)
	for _, kind := range heuristic.Kinds() {
		instances = append(instances, instance{"matching6/" + kind.String(), src6, tgt6,
			Options{Heuristic: kind}, []search.Algorithm{search.IDA, search.RBFS}})
	}
	for _, in := range instances {
		for _, algo := range in.algos {
			o := in.opts
			o.Algorithm = algo
			opts, err := o.normalize()
			if err != nil {
				t.Fatal(err)
			}
			// Named for the one goroutine that expands each run's states.
			t.Run(in.name+"/"+algo.String()+"/workers=1", func(t *testing.T) {
				checkTableAgainstScratch(t, in.src, in.tgt, opts)
			})
		}
	}
}

func checkTableAgainstScratch(t *testing.T, src, tgt *relation.Database, opts Options) {
	rec := &examineRecorder{mappingProblem: newProblem(src, tgt, opts), examined: make(map[*dbState]bool)}
	if _, err := search.RunContext(context.Background(), opts.Algorithm, rec, rec.h, opts.Limits); err != nil {
		t.Fatal(err)
	}
	canonical := func(s *dbState) bool {
		got, created := rec.table.intern(s.database(), s.key)
		return !created && got == s
	}
	scratch := heuristic.New(opts.Heuristic, tgt, opts.K)
	fresh := newProblem(src, tgt, opts)
	expanded := 0
	for s := range rec.examined {
		if !canonical(s) {
			t.Fatalf("examined state %x is not the table's state for its key", s.key)
		}
		want := verdictNotGoal
		if s.database().Contains(tgt) {
			want = verdictGoal
		}
		if got := s.goal; got != want {
			t.Fatalf("state %x: stored goal verdict = %d, reference scan gives %d", s.key, got, want)
		}
		// A state built on entry carries its derived fragment as a seed; a
		// clone shares no memo and encodes it again.
		for _, r := range s.database().RelationView() {
			if got, want := r.TNFFragment(), r.Clone().TNFFragment(); !got.Equal(want) {
				t.Fatalf("state %x relation %s: memoized fragment %+v, a clone's %+v", s.key, r.Name(), got, want)
			}
		}
		moves := s.moves
		if moves == nil {
			continue // examined but never expanded: a goal or a pruned leaf
		}
		expanded++
		ops := fresh.candidateOps(s.database())
		var wantOps []fira.Op
		var wantKeys []string
		for i, key := range builtChildren(t, s.database(), s.key, ops, opts.Registry) {
			if key != "" {
				wantOps, wantKeys = append(wantOps, ops[i]), append(wantKeys, key)
			}
		}
		if len(moves) != len(wantOps) {
			t.Fatalf("state %x: table lists %d moves, the built candidates %d", s.key, len(moves), len(wantOps))
		}
		for i, m := range moves {
			if got := m.To.(*dbState).key; m.Op.String() != wantOps[i].String() || got != wantKeys[i] {
				t.Fatalf("state %x move %d: table %s → %x, built %s → %x",
					s.key, i, m.Op, got, wantOps[i], wantKeys[i])
			}
			if !canonical(m.To.(*dbState)) {
				t.Fatalf("state %x move %d (%s): successor is not the table's state for its key", s.key, i, m.Op)
			}
		}
	}
	if expanded == 0 {
		t.Fatal("no examined state was expanded")
	}
	// Every state the table holds was estimated by its creator (the start
	// state by the search's first lookup), a pending one from its edit, and
	// is checked here against a from-scratch estimate, built if it is
	// still pending. A state's own database reads its relations' memoized
	// hashes, seeded by a preview where the state was built after one; a
	// clone shares no memo and recomputes every hash.
	unentered := 0
	for key, s := range rec.table {
		if s.goal == verdictUntested {
			unentered++
		}
		if !s.estimated {
			t.Fatalf("state %x has no published estimate", s.key)
		}
		if want := scratch.Estimate(s.database()); s.h != want {
			t.Fatalf("state %x: table h = %d, from-scratch estimate = %d", s.key, s.h, want)
		}
		if memo, clone := s.database().Key(), s.database().Clone().Key(); memo != key || clone != key || s.key != key {
			t.Fatalf("canonical state %x stored under %x: its database keys to %x, a clone to %x", s.key, key, memo, clone)
		}
	}
	t.Logf("%d table states, %d never entered", len(rec.table), unentered)
}

// TestMemoCountersAndSampling: the successor memo's hit/miss counters
// expose how many expansions the per-op apply metrics actually sampled. The
// state table's estimate lookups report under heuristic.cache.*: on a run
// every miss evaluates once and stores its estimate once.
func TestMemoCountersAndSampling(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	reg := obs.NewRegistry()
	// IDA* re-expands every shallower state on each deepening iteration, so
	// revisits — the memo's reason to exist — are structural, not workload
	// luck.
	opts, err := Options{Algorithm: search.IDA, Metrics: reg}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(src, tgt, opts); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	hits := snap.Counters["core.succmemo.hits"]
	misses := snap.Counters["core.succmemo.misses"]
	if misses == 0 {
		t.Fatal("no memo misses recorded")
	}
	if hits == 0 {
		t.Fatal("no memo hits recorded — IDA deepening should revisit states")
	}
	label := cacheLabel(opts)
	hHits := snap.Counters[obs.Name("heuristic.cache.hits", "cache", label)]
	hMisses := snap.Counters[obs.Name("heuristic.cache.misses", "cache", label)]
	entries := snap.Gauges[obs.Name("heuristic.cache.entries", "cache", label)]
	evals := snap.Histograms[obs.Name("heuristic.eval.seconds", "heuristic", label)].Count
	if hHits == 0 || hMisses == 0 {
		t.Fatalf("heuristic.cache hits/misses = %d/%d, want both > 0", hHits, hMisses)
	}
	if entries != hMisses || evals != hMisses {
		t.Fatalf("heuristic.cache misses = %d, entries = %d, evaluations = %d; want all equal", hMisses, entries, evals)
	}
}

// TestMemoStaysOnUnderTracer: a traced run keeps the move memo and emits
// its memo events.
func TestMemoStaysOnUnderTracer(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	col := obs.NewCollector()
	if _, err := Discover(src, tgt, Options{Algorithm: search.IDA, Tracer: col}); err != nil {
		t.Fatal(err)
	}
	var memoHits, memoMisses int
	for _, e := range col.Events() {
		switch e.Kind {
		case obs.EvMemoHit:
			memoHits++
		case obs.EvMemoMiss:
			memoMisses++
		}
	}
	if memoMisses == 0 {
		t.Fatal("traced run emitted no EvMemoMiss — memo disabled under Tracer?")
	}
	if memoHits == 0 {
		t.Fatal("traced run emitted no EvMemoHit")
	}
}

// TestStatesBuiltOnEntry pins the deferral of previewed children: after an
// IDA*/h1 discovery of MatchingPair(8), whose every successor is a
// previewed, Derivable ρ^att or π̄ child, a state holds a database only if
// the search entered it (its goal verdict is set), and the table holds
// states the search estimated but never entered, which hold their recipe
// and h, and neither a database nor a fragment (dbState has no field for
// one). A built state no longer holds its recipe, and the relation its
// build rebuilt holds the fragment the build derived, equal to a clone's.
func TestStatesBuiltOnEntry(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	opts, err := Options{Algorithm: search.IDA, Heuristic: heuristic.H1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(src, tgt, opts)
	if _, err := search.RunContext(context.Background(), opts.Algorithm, p, p.h, opts.Limits); err != nil {
		t.Fatal(err)
	}
	pending := 0
	for _, s := range p.table {
		if s.db == nil {
			if s.from == nil || s.op == nil || !s.estimated {
				t.Fatalf("pending state %x lacks its recipe or estimate", s.key)
			}
			pending++
			continue
		}
		if s.goal == verdictUntested {
			t.Fatalf("state %x holds a database but the search never entered it", s.key)
		}
		if s.from != nil || s.op != nil {
			t.Fatalf("built state %x still holds its recipe", s.key)
		}
		for _, r := range s.db.RelationView() {
			if got, want := r.TNFFragment(), r.Clone().TNFFragment(); !got.Equal(want) {
				t.Fatalf("built state %x relation %s: fragment %+v, a clone's %+v", s.key, r.Name(), got, want)
			}
		}
	}
	if pending == 0 {
		t.Fatalf("all %d states hold a database: no child was left unbuilt", len(p.table))
	}
	t.Logf("%d of %d states never built", pending, len(p.table))
}

// TestStateHeaderSizes pins the per-state headers to their size classes: a
// canonical state is 128 B and keeps no aggregate, and a TNF fragment's
// header, with hL's decoded strings behind one pointer, fits 128 B.
func TestStateHeaderSizes(t *testing.T) {
	if got := unsafe.Sizeof(dbState{}); got != 128 {
		t.Errorf("dbState is %d B, want 128", got)
	}
	if got := unsafe.Sizeof(relation.Fragment{}); got > 128 {
		t.Errorf("relation.Fragment is %d B, want at most 128", got)
	}
	if got := unsafe.Sizeof(relation.Database{}); got != 32 {
		t.Errorf("relation.Database is %d B, want 32", got)
	}
}

// TestBestEffortPartialNeverEntered: when a best-effort abort's
// lowest-h frontier state is one the search estimated but never entered,
// Result.PartialState is its database built on demand, equal by
// fingerprint to replaying the partial expression on the source.
func TestBestEffortPartialNeverEntered(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	unentered := 0
	// Every budget below the solving run's examined count aborts.
	for budget := 2; ; budget++ {
		opts, err := Options{Algorithm: search.IDA, Heuristic: heuristic.H1,
			Limits: search.Limits{MaxStates: budget, BestEffort: true}}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		p := newProblem(src, tgt, opts)
		_, serr := search.RunContext(context.Background(), opts.Algorithm, p, p.h, opts.Limits)
		if serr == nil {
			break
		}
		var e *search.Error
		if !errors.As(serr, &e) || e.Partial == nil {
			t.Fatalf("budget %d: err = %v, want an abort with a partial", budget, serr)
		}
		if e.Partial.State.(*dbState).db == nil {
			unentered++
		}
		res, ok := bestEffortResult(serr, opts)
		if !ok {
			t.Fatalf("budget %d: abort not degraded: %v", budget, serr)
		}
		want, err := res.Expr.Eval(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.PartialState.Fingerprint(); got != want.Fingerprint() {
			t.Fatalf("budget %d: partial state %q, replaying %s gives %q", budget, got, res.Expr, want.Fingerprint())
		}
	}
	if unentered == 0 {
		t.Fatal("no budget left an unentered state as the partial")
	}
}
