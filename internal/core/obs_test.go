package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
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

// TestProfileOpTableMatchesMetrics: the profile's operator table and the
// core.ops.proposed/applied counters describe the same applications. A
// candidate that fails, returns its input (µ when nothing coalesces) or
// leaves the state's key unchanged is proposed but not applied in both. The
// Flights restructuring proposes many merges that coalesce nothing, so the
// two would disagree there if the trace event marked them as applied.
func TestProfileOpTableMatchesMetrics(t *testing.T) {
	src, tgt, err := datagen.FlightsScaled(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.NewProfile()
	reg := obs.NewRegistry()
	if _, err := Discover(src, tgt, Options{Algorithm: search.IDA, Heuristic: heuristic.H1, Tracer: prof, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	if err := prof.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	table := profileOpTable(t, report.String())
	for _, k := range opKindNames {
		proposed := reg.Counter(obs.Name("core.ops.proposed", "op", k)).Value()
		applied := reg.Counter(obs.Name("core.ops.applied", "op", k)).Value()
		if got := table[k]; got != [2]int64{proposed, applied} {
			t.Errorf("%s: profile proposed/applied = %d/%d, core.ops = %d/%d", k, got[0], got[1], proposed, applied)
		}
	}
	if m := table["merge"]; m[1] == 0 || m[1] == m[0] {
		t.Fatalf("merge proposed/applied = %d/%d: the run should apply some merges and reject others", m[0], m[1])
	}
}

// profileOpTable parses the operator table of a Profile text report into
// kind → {proposed, applied}.
func profileOpTable(t *testing.T, report string) map[string][2]int64 {
	t.Helper()
	out := make(map[string][2]int64)
	lines := strings.Split(report, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "operator ") {
			continue
		}
		for _, row := range lines[i+1:] {
			f := strings.Fields(row)
			if len(f) != 5 {
				break
			}
			proposed, err1 := strconv.ParseInt(f[1], 10, 64)
			applied, err2 := strconv.ParseInt(f[2], 10, 64)
			if err1 != nil || err2 != nil {
				break
			}
			out[f[0]] = [2]int64{proposed, applied}
		}
		return out
	}
	t.Fatalf("report has no operator table:\n%s", report)
	return nil
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

// TestSharedProfileAcrossPortfolio is meaningful under -race: every
// portfolio member emits into one shared Profile, the
// intended CLI wiring of tupelo discover -profile -portfolio. The profile
// must survive the concurrency and still describe the race.
func TestSharedProfileAcrossPortfolio(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	prof := obs.NewProfile()
	opts := PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.Cosine},
			{Algorithm: search.IDA, Heuristic: heuristic.H1},
		},
	}
	opts.Options.Tracer = prof
	if _, err := DiscoverPortfolio(context.Background(), src, tgt, opts); err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	if err := prof.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "solved") {
		t.Fatalf("shared profile lost the winning run:\n%s", report.String())
	}
	var trace bytes.Buffer
	if err := prof.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(trace.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace from a portfolio run is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace empty")
	}
}
