package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

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
	// The builder stamps the run's wall time: the root span's duration.
	if report.Span == nil || report.DurationNS <= 0 || report.DurationNS != report.Span.DurationNS {
		t.Fatalf("DurationNS = %d, want the root span's duration > 0", report.DurationNS)
	}
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
	for _, want := range []string{"outcome:  solved", "RBFS", "cosine", " wall=", "spans:", "search RBFS [solved]"} {
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
		ring.Record(obs.EvGoalTest, uint32(i), int32(i), 0)
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
	for _, want := range []string{"cause: deadline", "ring 1 RBFS", "goal-test=10", "last: goal-test seq=9 depth=9"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("flight summary missing %q:\n%s", want, sum.String())
		}
	}
	// A v1 dump, whose a/b payload fields v2 renamed, is not read as v2.
	v1 := `{"schema":"tupelo-flight/v1","start":"2026-09-01T12:00:00Z","ring_size":64,"rings":1}
{"ring":"RBFS","i":0,"at_ns":0,"kind":"abort","a":2}
`
	if _, err := detectInput([]byte(v1)); err == nil || !strings.Contains(err.Error(), "unrecognized artifact") {
		t.Fatalf("detectInput(v1 dump) = %v, want the unrecognized-schema error", err)
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

// TestFlightSummaryGroupsByRing: two rings that share a label (two racing
// members of one configuration) summarize as two rows, in dump order.
func TestFlightSummaryGroupsByRing(t *testing.T) {
	fr := obs.NewFlightRecorder(64)
	for n := 1; n <= 2; n++ {
		ring := fr.Ring("RBFS/cosine/k=24")
		ring.Record(obs.EvRunStart, 0, 0, 0)
		for i := 1; i <= n; i++ {
			ring.Record(obs.EvGoalTest, uint32(i), 0, 0)
		}
		ring.Record(obs.EvRunFinish, uint32(n), obs.CauseCode("deadline"), 0)
	}
	fr.RequestDump("deadline")
	var dump bytes.Buffer
	if err := fr.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, dump.Bytes())
	var sum bytes.Buffer
	if err := summaryCmd(&sum, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sum.String()), "\n")
	if len(lines) != 3 ||
		!strings.HasPrefix(lines[1], "  ring 1 RBFS/cosine/k=24        3 records (goal-test=1 run-finish=1 run-start=1), last: run-finish n=1 err=deadline") ||
		!strings.HasPrefix(lines[2], "  ring 2 RBFS/cosine/k=24        4 records (goal-test=2 run-finish=1 run-start=1), last: run-finish n=2 err=deadline") {
		t.Fatalf("want one row per ring:\n%s", sum.String())
	}
}

// mustInput sniffs and parses an artifact.
func mustInput(t *testing.T, data []byte) *input {
	t.Helper()
	in, err := detectInput(data)
	if err != nil {
		t.Fatalf("detectInput: %v", err)
	}
	return in
}

// goldenReport is a small solved run report with every section the
// renderers draw, at fixed times.
func goldenReport(t *testing.T) *input {
	t.Helper()
	ms := int64(time.Millisecond)
	r := &obs.RunReport{
		Schema: obs.ReportSchema, Algorithm: "RBFS", Heuristic: "cosine", K: 24,
		Solved: true, Examined: 4, Generated: 9, Depth: 2, EBF: 1.562,
		Span: &obs.Span{Name: "run", Kind: "run", DurationNS: 5 * ms, Children: []*obs.Span{
			{Name: "RBFS", Kind: "search", StartNS: ms, DurationNS: 3 * ms, Examined: 4, Outcome: "solved"},
		}},
		Caches: []obs.CacheReport{obs.NewCacheReport("cosine/k=24", 3, 6)},
		Memo:   &obs.CacheReport{Name: "succmemo", Hits: 1, Misses: 2, HitRate: 1.0 / 3},
		Perf: &obs.RunProfile{
			Expansions: 3, ExpandNS: 600 * int64(time.Microsecond), Moves: 9,
			Depths: []obs.DepthProfile{{Depth: 0, Expansions: 1, Moves: 4}, {Depth: 1, Expansions: 2, Moves: 5}},
			Ops: map[string]obs.OpProfile{
				"drop":       {Proposed: 5, Applied: 4, ApplyTotalNS: 50_000, ApplyMaxNS: 20_000},
				"rename_att": {Proposed: 4, Applied: 4, ApplyTotalNS: 12_000, ApplyMaxNS: 4_000},
			},
			Stride: 1,
			Timeline: []obs.ProfileCheckpoint{
				{OffsetNS: ms, Examined: 1, CacheMisses: 1},
				{OffsetNS: 2 * ms, Examined: 2, CacheHits: 1, CacheMisses: 4, MemoMisses: 1},
				{OffsetNS: 4 * ms, Examined: 4, CacheHits: 3, CacheMisses: 6, MemoHits: 1, MemoMisses: 2},
			},
			Slices: []obs.ExpandSlice{
				{OffsetNS: ms + 100_000, DurNS: 200_000, Depth: 0, Moves: 4},
				{OffsetNS: 2*ms + 100_000, DurNS: 200_000, Depth: 1, Moves: 3},
			},
			SlicesDropped: 1,
		},
	}
	var buf bytes.Buffer
	if err := obs.WriteRunReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	return mustInput(t, buf.Bytes())
}

// TestSummaryProfileGolden pins the rendered summary of a report: the
// report lines, then the profile's expansion line and its depth, operator
// and timeline tables.
func TestSummaryProfileGolden(t *testing.T) {
	var out bytes.Buffer
	if err := summaryCmd(&out, goldenReport(t)); err != nil {
		t.Fatal(err)
	}
	const want = `run report (tupelo-report/v1)
  config:   RBFS / cosine k=24
  outcome:  solved
  effort:   examined=4 generated=9 depth=2 ebf=1.562
  cache cosine/k=24    hits=3        misses=6        hit-rate=33.3%
  memo  succmemo       hits=1        misses=2        hit-rate=33.3%
  spans:
    run run 5ms
      search RBFS [solved] examined=4 3ms
expansions: 3 (total 600µs); moves offered: 9
depth   expansions    moves
0                1        4
1                2        5
operator        proposed  applied  apply total  apply max
drop                   5        4         50µs       20µs
rename_att             4        4         12µs        4µs
timeline (3 checkpoints, stride 1 states):
  +1ms                 1 states       1000 states/sec    0.0% cache hits
  +2ms                 2 states       1000 states/sec   20.0% cache hits    0.0% memo hits
  +4ms                 4 states       1000 states/sec   33.3% cache hits   33.3% memo hits
(1 expansion slices beyond the first 2 not recorded)
`
	if got := out.String(); got != want {
		t.Fatalf("summary drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// chromeLines renders chrome output one trace event per line.
func chromeLines(t *testing.T, in *input) string {
	t.Helper()
	var out bytes.Buffer
	if err := chromeCmd(&out, in); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	var b strings.Builder
	for _, e := range doc.TraceEvents {
		b.Write(e)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestChromeReportGolden pins the Chrome export of a report: its spans,
// the expansion row, and the counter tracks.
func TestChromeReportGolden(t *testing.T) {
	const want = `{"name":"run run","ph":"X","ts":0,"dur":5000,"pid":1,"tid":1,"args":{"error":"","examined":0}}
{"name":"search RBFS [solved]","ph":"X","ts":1000,"dur":3000,"pid":1,"tid":2,"args":{"error":"","examined":4}}
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":3,"args":{"name":"expansions"}}
{"name":"expand depth=0","ph":"X","ts":1100,"dur":200,"pid":1,"tid":3,"args":{"depth":0,"moves":4}}
{"name":"expand depth=1","ph":"X","ts":2100,"dur":200,"pid":1,"tid":3,"args":{"depth":1,"moves":3}}
{"name":"states examined","ph":"C","ts":1000,"pid":1,"tid":0,"args":{"states":1}}
{"name":"states/sec","ph":"C","ts":1000,"pid":1,"tid":0,"args":{"rate":1000}}
{"name":"cache hit rate","ph":"C","ts":1000,"pid":1,"tid":0,"args":{"percent":0}}
{"name":"states examined","ph":"C","ts":2000,"pid":1,"tid":0,"args":{"states":2}}
{"name":"states/sec","ph":"C","ts":2000,"pid":1,"tid":0,"args":{"rate":1000}}
{"name":"cache hit rate","ph":"C","ts":2000,"pid":1,"tid":0,"args":{"percent":20}}
{"name":"memo hit rate","ph":"C","ts":2000,"pid":1,"tid":0,"args":{"percent":0}}
{"name":"states examined","ph":"C","ts":4000,"pid":1,"tid":0,"args":{"states":4}}
{"name":"states/sec","ph":"C","ts":4000,"pid":1,"tid":0,"args":{"rate":1000}}
{"name":"cache hit rate","ph":"C","ts":4000,"pid":1,"tid":0,"args":{"percent":33.333333333333336}}
{"name":"memo hit rate","ph":"C","ts":4000,"pid":1,"tid":0,"args":{"percent":33.333333333333336}}
`
	if got := chromeLines(t, goldenReport(t)); got != want {
		t.Fatalf("chrome export drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestChromeFlightGolden pins the Chrome export of a flight dump: one
// named thread row per ring, rings apart even when they share a label, and
// one instant per record.
func TestChromeFlightGolden(t *testing.T) {
	dump := `{"schema":"tupelo-flight/v2","start":"2026-09-01T12:00:00Z","ring_size":64,"rings":2,"cause":"deadline"}
{"kind":"run-start","label":"IDA/h1/k=1","ring":1}
{"kind":"goal-test","label":"IDA/h1/k=1","seq":1,"ring":1,"i":1,"at_ns":2000}
{"kind":"run-start","label":"IDA/h1/k=1","ring":2,"at_ns":3000}
{"kind":"run-finish","label":"IDA/h1/k=1","n":0,"err":"deadline","ring":2,"i":1,"at_ns":3000}
`
	const want = `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"IDA/h1/k=1"}}
{"name":"run-start","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"kind":"run-start","label":"IDA/h1/k=1","ring":1}}
{"name":"goal-test","ph":"i","ts":2,"pid":1,"tid":1,"s":"t","args":{"kind":"goal-test","label":"IDA/h1/k=1","seq":1,"ring":1,"i":1,"at_ns":2000}}
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"IDA/h1/k=1"}}
{"name":"run-start","ph":"i","ts":3,"pid":1,"tid":2,"s":"t","args":{"kind":"run-start","label":"IDA/h1/k=1","ring":2,"at_ns":3000}}
{"name":"run-finish","ph":"i","ts":3,"pid":1,"tid":2,"s":"t","args":{"kind":"run-finish","label":"IDA/h1/k=1","err":"deadline","ring":2,"i":1,"at_ns":3000}}
`
	if got := chromeLines(t, mustInput(t, []byte(dump))); got != want {
		t.Fatalf("chrome export drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestProfileChromeTraceValid decodes the Chrome export of a real run's
// report strictly: every record has a name, a phase, a pid and a
// non-negative timestamp, and the export draws spans, expansion slices and
// counter tracks — the contract chrome://tracing and Perfetto load.
func TestProfileChromeTraceValid(t *testing.T) {
	report := runReportFixture(t, core.Options{})
	var buf bytes.Buffer
	if err := obs.WriteRunReport(&buf, report); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := chromeCmd(&out, mustInput(t, buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(&out)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("not a valid trace_event document: %v", err)
	}
	counts := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.PID == 0 || e.TS < 0 || e.Dur < 0 {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if e.Ph == "C" && len(e.Args) == 0 {
			t.Fatalf("counter %d has no args: %+v", i, e)
		}
		counts[e.Ph]++
	}
	if int64(counts["X"]) < 2+report.Perf.Expansions || counts["C"] == 0 || counts["M"] == 0 {
		t.Fatalf("trace shape %v for %d expansions", counts, report.Perf.Expansions)
	}
}
