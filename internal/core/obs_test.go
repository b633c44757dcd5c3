package core

import (
	"context"
	"strings"
	"testing"

	"tupelo/internal/datagen"
	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// TestDerefCandidateCount pins the candidate set of the → generator after
// replacing the confusing sortedMissing(p.tAttrs, empty-map) enumeration:
// one Deref per (pointer column, target attribute the relation lacks), in
// sorted target-attribute order.
func TestDerefCandidateCount(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("R", []string{"a", "b", "p"},
			relation.Tuple{"1", "2", "a"},
			relation.Tuple{"3", "4", "b"},
		),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("T", []string{"a", "b", "x", "y"},
			relation.Tuple{"1", "2", "3", "4"},
		),
	)
	opts, err := Options{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(src, tgt, opts)
	ops := p.derefMoves(nil, newExpCtx(src))
	// Only column p holds attribute names throughout; the candidate outputs
	// are the target attributes R lacks: x and y, in sorted order.
	if len(ops) != 2 {
		t.Fatalf("derefMoves proposed %d ops, want 2: %v", len(ops), ops)
	}
	want := []string{"deref[R,p->x]", "deref[R,p->y]"}
	for i, op := range ops {
		if op.String() != want[i] {
			t.Fatalf("ops[%d] = %s, want %s", i, op, want[i])
		}
	}
}

// TestZeroValuedPortfolioConfigResolved pins satellite rule: a zero-valued
// PortfolioConfig member resolves through the same sentinel rules as
// Options (AlgorithmUnset→RBFS, heuristic Unset→cosine, K→published
// constant), and the resolved values — not the zero sentinels — are what
// PortfolioRun.Config reports.
func TestZeroValuedPortfolioConfigResolved(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	res, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("len(Runs) = %d, want 1", len(res.Runs))
	}
	cfg := res.Runs[0].Config
	if cfg.Algorithm != search.RBFS || cfg.Heuristic != heuristic.Cosine {
		t.Fatalf("resolved config = %s, want RBFS/cosine", cfg)
	}
	if cfg.K == 0 {
		t.Fatal("resolved config must report the published K, not the 0 sentinel")
	}
	if cfg.K != heuristic.DefaultK(search.RBFS, heuristic.Cosine) {
		t.Fatalf("resolved K = %g, want published constant", cfg.K)
	}
	if res.Winner != cfg {
		t.Fatalf("Winner = %s, want the resolved member config %s", res.Winner, cfg)
	}
}

// TestPortfolioEventStreamAndMetrics is the acceptance criterion for the
// observability layer at the portfolio level: racing a capable member
// against a hopeless one under a Collector yields a structured stream with
// every member's start, exactly one win, the loser's cancellation, and
// cache traffic; the registry carries the win counter and per-member
// duration timers.
func TestPortfolioEventStreamAndMetrics(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	reg := obs.NewRegistry()
	col := obs.NewCollector()
	opts := PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.Cosine},
			{Algorithm: search.IDA, Heuristic: heuristic.H0},
		},
	}
	opts.Options.Metrics = reg
	opts.Options.Tracer = col
	res, err := DiscoverPortfolio(context.Background(), src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Count(obs.EvMemberStart); got != 2 {
		t.Fatalf("member-start events = %d, want 2", got)
	}
	if got := col.Count(obs.EvMemberWin); got != 1 {
		t.Fatalf("member-win events = %d, want 1", got)
	}
	if got := col.Count(obs.EvMemberCancel, obs.EvMemberLose); got != 1 {
		t.Fatalf("member cancel/lose events = %d, want 1", got)
	}
	if got := col.Count(obs.EvRunStart); got != 2 {
		t.Fatalf("run-start events = %d, want 2 (one per member)", got)
	}
	if col.Count(obs.EvCacheHit) == 0 {
		t.Fatal("no cache-hit events: prewarmed estimates should be hits in the search loop")
	}
	winLabel := res.Winner.String()
	if got := reg.Counter(obs.Name("portfolio.wins", "member", winLabel)).Value(); got != 1 {
		t.Fatalf("portfolio.wins{member=%s} = %d, want 1", winLabel, got)
	}
	if got := reg.Timer(obs.Name("portfolio.member.duration", "member", winLabel)).Count(); got != 1 {
		t.Fatalf("winner duration timer count = %d, want 1", got)
	}
	if got := reg.Counter(obs.Name("search.examined", "algo", "RBFS")).Value(); got == 0 {
		t.Fatal("search.examined{algo=RBFS} = 0, want > 0")
	}
	// Per-operator successor metrics flow from the same run.
	var proposed int64
	for _, k := range opKindNames {
		proposed += reg.Counter(obs.Name("core.ops.proposed", "op", k)).Value()
	}
	if proposed == 0 {
		t.Fatal("no proposed-operator counts recorded")
	}
}

// TestProfileOpTableMatchesMetrics: the report profile's operator table and
// the core.ops.proposed/applied counters describe the same applications. A
// candidate that fails, returns its input (µ when nothing coalesces) or
// leaves the state's key unchanged is proposed but not applied in both. The
// Flights restructuring proposes many merges that coalesce nothing, so the
// two would disagree there if the trace event marked them as applied. The
// profile's depth rows sum to its expansion count, which matches the
// expansion-latency histogram.
func TestProfileOpTableMatchesMetrics(t *testing.T) {
	src, tgt, err := datagen.FlightsScaled(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rb := obs.NewReportBuilder()
	reg := obs.NewRegistry()
	opts := Options{Algorithm: search.IDA, Heuristic: heuristic.H1, Tracer: rb, Metrics: reg}
	res, err := Discover(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(res, nil, src, tgt, opts, rb)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Perf
	if p == nil {
		t.Fatal("report has no profile section")
	}
	for _, k := range opKindNames {
		proposed := reg.Counter(obs.Name("core.ops.proposed", "op", k)).Value()
		applied := reg.Counter(obs.Name("core.ops.applied", "op", k)).Value()
		if got := p.Ops[k]; got.Proposed != proposed || got.Applied != applied {
			t.Errorf("%s: profile proposed/applied = %d/%d, core.ops = %d/%d", k, got.Proposed, got.Applied, proposed, applied)
		}
	}
	if m := p.Ops["merge"]; m.Applied == 0 || m.Applied == m.Proposed {
		t.Fatalf("merge proposed/applied = %d/%d: the run should apply some merges and reject others", m.Proposed, m.Applied)
	}
	var expansions int64
	for _, d := range p.Depths {
		expansions += d.Expansions
	}
	if hist := reg.Histogram(obs.Name("search.expand.seconds", "algo", "IDA")).Count(); expansions != p.Expansions || expansions != hist {
		t.Fatalf("depth rows sum to %d expansions, profile counts %d, histogram %d", expansions, p.Expansions, hist)
	}
}

// TestLatencyHistogramsRecorded is the acceptance check for the profiling
// layer's registry half: an instrumented run populates the goal-test,
// expansion, heuristic-evaluation, and operator-apply latency histograms.
func TestLatencyHistogramsRecorded(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	reg := obs.NewRegistry()
	res, err := Discover(src, tgt, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	goalTests := reg.Histogram(obs.Name("search.goaltest.seconds", "algo", "RBFS"))
	if goalTests.Count() != int64(res.Stats.Examined) {
		t.Fatalf("goal-test histogram count = %d, want %d (one per examined state)",
			goalTests.Count(), res.Stats.Examined)
	}
	if reg.Histogram(obs.Name("search.expand.seconds", "algo", "RBFS")).Count() == 0 {
		t.Fatal("expansion histogram empty")
	}
	var applies int64
	for _, k := range opKindNames {
		applies += reg.Histogram(obs.Name("core.op.apply.seconds", "op", k)).Count()
	}
	if applies == 0 {
		t.Fatal("operator-apply histograms empty")
	}
	s := reg.Snapshot()
	if len(s.Histograms) == 0 {
		t.Fatal("snapshot carries no histograms")
	}
	// The eval label carries the resolved (heuristic, k) cache identity;
	// match by family rather than hard-coding the published constant.
	var evals int64
	for name, hs := range s.Histograms {
		if strings.HasPrefix(name, "heuristic.eval.seconds{") {
			evals += hs.Count
		}
	}
	if evals == 0 {
		t.Fatalf("heuristic-evaluation histogram empty; snapshot has %v", histNames(s))
	}
}

func histNames(s obs.Snapshot) []string {
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	return names
}

// TestSharedProfileAcrossPortfolio runs default races, each under one
// report builder and one flight recorder shared by every member
// (meaningful under -race). Every member's search carries the member's
// label: each member span holds its own search span with the same states
// examined, the win member's search is the solved one, each member records
// its own flight ring, and the shared profile counts every member's work.
func TestSharedProfileAcrossPortfolio(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	for race := 0; race < 20; race++ {
		rb := obs.NewReportBuilder()
		fr := obs.NewFlightRecorder(0)
		var popts PortfolioOptions
		popts.Options.Tracer = rb
		popts.Options.Flight = fr
		pres, err := DiscoverPortfolio(context.Background(), src, tgt, popts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := BuildReport(pres.Result, nil, src, tgt, popts.Options, rb)
		if err != nil {
			t.Fatal(err)
		}
		members := rep.Span.Children
		if len(members) != len(DefaultPortfolio()) {
			t.Fatalf("race %d: root holds %d spans, want one per member", race, len(members))
		}
		examined := 0
		for _, m := range members {
			if m.Kind != "member" || len(m.Children) != 1 {
				t.Fatalf("race %d: span %s (%s) holds %d children, want its one search", race, m.Name, m.Kind, len(m.Children))
			}
			s := m.Children[0]
			if s.Kind != "search" || s.Name != m.Name || s.Examined != m.Examined {
				t.Fatalf("race %d: member %s (examined %d) holds %s %s (examined %d)", race, m.Name, m.Examined, s.Kind, s.Name, s.Examined)
			}
			if m.Outcome == "win" && s.Outcome != "solved" {
				t.Fatalf("race %d: win member %s holds a %s search", race, m.Name, s.Outcome)
			}
			if len(fr.Records(m.Name)) == 0 {
				t.Fatalf("race %d: member %s recorded no flight ring of its own", race, m.Name)
			}
			examined += s.Examined
		}
		if p := rep.Perf; p == nil || p.Timeline[len(p.Timeline)-1].Examined > int64(examined) || p.Expansions == 0 {
			t.Fatalf("race %d: shared profile %+v does not describe %d states examined", race, rep.Perf, examined)
		}
	}
}
