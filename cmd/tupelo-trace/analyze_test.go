package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"tupelo/internal/core"
	"tupelo/internal/datagen"
	"tupelo/internal/experiments"
	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/search"
)

// benchExp1 runs a compact Experiment 1 — every heuristic kind on the same
// schema sizes, so per-kind mean states are directly comparable — and
// returns its bench report.
func benchExp1(t *testing.T) *experiments.BenchReport {
	t.Helper()
	var ms []experiments.Measurement
	cfg := experiments.Config{
		Budget:  3000,
		Seed:    2006,
		Metrics: obs.NewRegistry(),
		Collect: func(m experiments.Measurement) { ms = append(ms, m) },
	}
	sizes := []int{2, 4, 6}
	opts := experiments.Exp1Options{
		Algorithm:   search.RBFS,
		SetSizes:    sizes,
		VectorSizes: sizes,
		BlindSizes:  sizes,
	}
	if _, err := experiments.RunExp1(opts, cfg); err != nil {
		t.Fatalf("RunExp1: %v", err)
	}
	r := experiments.NewBenchReport("exp1", cfg, ms)
	r.AttachMetrics(cfg.Metrics)
	return r
}

// TestHeuristicOrderingExp1 is the acceptance criterion for the heuristic
// analyzer: on an Experiment 1 workload, the heuristic-quality accuracy
// ranking must be consistent with the states-examined ranking — the
// mechanism behind the paper's Fig. 6 ordering. Verified end to end through
// the tupelo-trace input path.
func TestHeuristicOrderingExp1(t *testing.T) {
	r := benchExp1(t)
	if len(r.Quality) == 0 {
		t.Fatalf("bench report has no quality rollup")
	}

	byKind := map[string]experiments.BenchQuality{}
	for _, q := range r.Quality {
		byKind[q.Heuristic] = q
	}
	h0, ok := byKind["h0"]
	if !ok {
		t.Fatalf("no h0 row in quality rollup: %+v", r.Quality)
	}
	if h0.MeanAccuracy != 0 {
		t.Fatalf("h0 mean accuracy = %g, want 0 (blind search carries no signal)", h0.MeanAccuracy)
	}
	var best experiments.BenchQuality
	for _, q := range r.Quality {
		if q.MeanAccuracy > best.MeanAccuracy {
			best = q
		}
	}
	if best.MeanStates >= h0.MeanStates {
		t.Fatalf("best-accuracy heuristic %s examined %.1f states on average, blind h0 only %.1f — ordering inverted",
			best.Heuristic, best.MeanStates, h0.MeanStates)
	}
	rho := QualityConsistency(r.Quality)
	t.Logf("accuracy-vs-states Spearman: %.3f (rollup: %+v)", rho, r.Quality)
	if rho <= 0 {
		t.Fatalf("quality ranking inconsistent with states-examined ranking: Spearman %.3f", rho)
	}

	// End to end through the CLI: serialize, sniff, analyze.
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	in, err := detectInput(buf.Bytes())
	if err != nil {
		t.Fatalf("detectInput: %v", err)
	}
	if in.kind != "bench" {
		t.Fatalf("detected kind %q, want bench", in.kind)
	}
	var out bytes.Buffer
	if err := heuristicCmd(&out, in); err != nil {
		t.Fatalf("heuristicCmd: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "ordering consistency") || !strings.Contains(text, "h0") {
		t.Fatalf("heuristic output missing ranking/consistency:\n%s", text)
	}
	// The printed ranking's first data row must be the best-accuracy kind.
	lines := strings.Split(text, "\n")
	if len(lines) < 2 || !strings.Contains(lines[1], best.Heuristic) {
		t.Fatalf("top-ranked line %q does not name %s", lines[1], best.Heuristic)
	}
}

// runReportFixture produces a real run report by discovering a small mapping
// with the report builder attached.
func runReportFixture(t *testing.T, opts core.Options) *obs.RunReport {
	t.Helper()
	src, tgt := datagen.MustMatchingPair(6)
	reg := obs.NewRegistry()
	rb := obs.NewReportBuilder()
	opts.Metrics = reg
	opts.Tracer = rb
	res, err := core.DiscoverContext(context.Background(), src, tgt, opts)
	if err != nil {
		t.Fatalf("DiscoverContext: %v", err)
	}
	report, err := core.BuildReport(res, nil, src, tgt, opts, rb)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	return report
}

func TestSummaryAndHeuristicOnRunReport(t *testing.T) {
	report := runReportFixture(t, core.Options{Algorithm: search.RBFS, Heuristic: heuristic.Cosine})
	var buf bytes.Buffer
	if err := obs.WriteRunReport(&buf, report); err != nil {
		t.Fatalf("WriteRunReport: %v", err)
	}
	in, err := detectInput(buf.Bytes())
	if err != nil {
		t.Fatalf("detectInput: %v", err)
	}
	if in.kind != "report" {
		t.Fatalf("detected kind %q, want report", in.kind)
	}
	var sum bytes.Buffer
	if err := summaryCmd(&sum, in); err != nil {
		t.Fatalf("summaryCmd: %v", err)
	}
	for _, want := range []string{"outcome:  solved", "RBFS", "cosine", "spans:", "search RBFS [solved]"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sum.String())
		}
	}
	var heur bytes.Buffer
	if err := heuristicCmd(&heur, in); err != nil {
		t.Fatalf("heuristicCmd: %v", err)
	}
	if !strings.Contains(heur.String(), "cosine") || !strings.Contains(heur.String(), "rank") {
		t.Fatalf("heuristic table missing entries:\n%s", heur.String())
	}
}

// legacyShardedReport is a tupelo-report/v1 document as the engine wrote it
// for a sharded A* run, before that search was removed: it carries the
// retired `workers` configuration key, a `shards` section, and `shard`
// spans.
const legacyShardedReport = `{
  "schema": "tupelo-report/v1",
  "generated_at": "2026-09-01T12:00:00Z",
  "algorithm": "A*",
  "heuristic": "cosine",
  "k": 24,
  "workers": 2,
  "solved": true,
  "examined": 12,
  "generated": 40,
  "depth": 3,
  "ebf": 1.9,
  "span": {"name": "run", "kind": "run", "start_ns": 0, "duration_ns": 90000, "children": [
    {"name": "PA*", "kind": "search", "start_ns": 1000, "duration_ns": 80000, "examined": 12, "outcome": "solved", "children": [
      {"name": "shard-0", "kind": "shard", "start_ns": 1000, "examined": 7},
      {"name": "shard-1", "kind": "shard", "start_ns": 1000, "examined": 5}
    ]}
  ]},
  "shards": {
    "workers": 2,
    "shards": [
      {"shard": 0, "examined": 7, "routed": 3, "deferred": 0},
      {"shard": 1, "examined": 5, "routed": 4, "deferred": 1}
    ],
    "imbalance_permille": 1166,
    "inbox_timeline": [{"at_ns": 5000, "shard": 0, "seq": 1, "depth": 2, "outbox": 0}]
  },
  "caches": [{"name": "cosine/k=24", "hits": 30, "misses": 10, "hit_rate": 0.75}]
}`

// TestSummaryReadsRetiredReportFields: run reports written while the
// engine had a sharded search still read back through ReadRunReport and
// render with summary; the retired keys are ignored.
func TestSummaryReadsRetiredReportFields(t *testing.T) {
	r, err := obs.ReadRunReport(strings.NewReader(legacyShardedReport))
	if err != nil {
		t.Fatalf("ReadRunReport: %v", err)
	}
	if r.Examined != 12 || !r.Solved || r.Algorithm != "A*" {
		t.Fatalf("decoded %+v", r)
	}
	in, err := detectInput([]byte(legacyShardedReport))
	if err != nil {
		t.Fatalf("detectInput: %v", err)
	}
	var sum bytes.Buffer
	if err := summaryCmd(&sum, in); err != nil {
		t.Fatalf("summaryCmd: %v", err)
	}
	for _, want := range []string{"outcome:  solved", "A* / cosine", "examined=12", "search PA* [solved]", "shard shard-1 examined=5", "cache cosine/k=24"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

func TestChromeFromReport(t *testing.T) {
	report := runReportFixture(t, core.Options{})
	var buf bytes.Buffer
	if err := obs.WriteRunReport(&buf, report); err != nil {
		t.Fatalf("WriteRunReport: %v", err)
	}
	in, err := detectInput(buf.Bytes())
	if err != nil {
		t.Fatalf("detectInput: %v", err)
	}
	var out bytes.Buffer
	if err := chromeCmd(&out, in); err != nil {
		t.Fatalf("chromeCmd: %v", err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome output has no events")
	}
	found := false
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && strings.Contains(e.Name, "search") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no search span in chrome events: %+v", doc.TraceEvents)
	}
}

func TestDetectFlightAndTrace(t *testing.T) {
	// Flight dump: record through the real recorder, dump, re-parse.
	fr := obs.NewFlightRecorder(64)
	ring := fr.Ring("RBFS")
	for i := 0; i < 10; i++ {
		ring.Record(obs.FKExamine, uint32(i), int32(i), 0)
	}
	fr.RequestDump("deadline")
	var dump bytes.Buffer
	if err := fr.Dump(&dump); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	in, err := detectInput(dump.Bytes())
	if err != nil {
		t.Fatalf("detectInput(flight): %v", err)
	}
	if in.kind != "flight" || len(in.flight.Records) != 10 || in.flight.Header.Cause != "deadline" {
		t.Fatalf("flight parse = kind %q, %d records, cause %q", in.kind, len(in.flight.Records), in.flight.Header.Cause)
	}
	var sum bytes.Buffer
	if err := summaryCmd(&sum, in); err != nil {
		t.Fatalf("summaryCmd(flight): %v", err)
	}
	for _, want := range []string{"cause: deadline", "ring RBFS", "examine=10"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("flight summary missing %q:\n%s", want, sum.String())
		}
	}

	// JSONL trace via the real tracer.
	var traceBuf bytes.Buffer
	tr := obs.NewJSONTracer(&traceBuf)
	tr.Event(obs.Event{Kind: obs.EvRunStart, Label: "RBFS"})
	tr.Event(obs.Event{Kind: obs.EvGoalTest, Seq: 1})
	tr.Event(obs.Event{Kind: obs.EvRunFinish, Label: "RBFS", Goal: true, N: 1})
	in, err = detectInput(traceBuf.Bytes())
	if err != nil {
		t.Fatalf("detectInput(trace): %v", err)
	}
	if in.kind != "trace" || len(in.trace) != 3 {
		t.Fatalf("trace parse = kind %q, %d events", in.kind, len(in.trace))
	}
	sum.Reset()
	if err := summaryCmd(&sum, in); err != nil {
		t.Fatalf("summaryCmd(trace): %v", err)
	}
	if !strings.Contains(sum.String(), "solved=true") {
		t.Fatalf("trace summary missing outcome:\n%s", sum.String())
	}
}

func TestDiffRunReports(t *testing.T) {
	a := runReportFixture(t, core.Options{Heuristic: heuristic.H1})
	b := runReportFixture(t, core.Options{Heuristic: heuristic.Cosine})
	parse := func(r *obs.RunReport) *input {
		var buf bytes.Buffer
		if err := obs.WriteRunReport(&buf, r); err != nil {
			t.Fatalf("WriteRunReport: %v", err)
		}
		in, err := detectInput(buf.Bytes())
		if err != nil {
			t.Fatalf("detectInput: %v", err)
		}
		return in
	}
	var out bytes.Buffer
	if err := diffCmd(&out, parse(a), parse(b)); err != nil {
		t.Fatalf("diffCmd: %v", err)
	}
	if !strings.Contains(out.String(), "examined") || !strings.Contains(out.String(), "->") {
		t.Fatalf("diff output incomplete:\n%s", out.String())
	}
}

func TestQualityConsistencyMath(t *testing.T) {
	perfect := []experiments.BenchQuality{
		{Heuristic: "a", MeanAccuracy: 0.9, MeanStates: 10},
		{Heuristic: "b", MeanAccuracy: 0.5, MeanStates: 100},
		{Heuristic: "c", MeanAccuracy: 0.1, MeanStates: 1000},
	}
	if rho := QualityConsistency(perfect); rho < 0.999 {
		t.Fatalf("perfectly consistent ranking scored %g", rho)
	}
	inverted := []experiments.BenchQuality{
		{Heuristic: "a", MeanAccuracy: 0.1, MeanStates: 10},
		{Heuristic: "b", MeanAccuracy: 0.5, MeanStates: 100},
		{Heuristic: "c", MeanAccuracy: 0.9, MeanStates: 1000},
	}
	if rho := QualityConsistency(inverted); rho > -0.999 {
		t.Fatalf("inverted ranking scored %g", rho)
	}
}
