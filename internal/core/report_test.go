package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"tupelo/internal/datagen"
	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/search"
)

// runWithReport runs one discovery with a private registry and report
// builder attached and assembles the report.
func runWithReport(t *testing.T, n int, opts Options) (*obs.RunReport, *Result) {
	t.Helper()
	src, tgt := datagen.MustMatchingPair(n)
	reg := obs.NewRegistry()
	rb := obs.NewReportBuilder()
	opts.Metrics = reg
	opts.Tracer = rb
	res, err := DiscoverContext(context.Background(), src, tgt, opts)
	if err != nil {
		t.Fatalf("DiscoverContext: %v", err)
	}
	report, rerr := BuildReport(res, nil, src, tgt, opts, rb)
	if rerr != nil {
		t.Fatalf("BuildReport: %v", rerr)
	}
	return report, res
}

func TestBuildReportSequential(t *testing.T) {
	report, res := runWithReport(t, 6, Options{
		Algorithm: search.RBFS,
		Heuristic: heuristic.Cosine,
	})
	if err := obs.ValidateRunReport(report); err != nil {
		t.Fatalf("ValidateRunReport: %v", err)
	}
	if !report.Solved || report.Examined != res.Stats.Examined || report.Depth != res.Stats.Depth {
		t.Fatalf("report outcome mismatch: %+v vs stats %+v", report, res.Stats)
	}
	if report.Algorithm != "RBFS" || report.Heuristic != "cosine" {
		t.Fatalf("config = %s/%s", report.Algorithm, report.Heuristic)
	}
	if report.EBF <= 0 {
		t.Fatalf("EBF = %g, want > 0 for a solved run", report.EBF)
	}
	if report.Span == nil || len(report.Span.Children) == 0 {
		t.Fatalf("report has no span tree")
	}
	// One search span, solved.
	var searchSpan *obs.Span
	for _, s := range report.Span.Children {
		if s.Kind == "search" {
			searchSpan = s
		}
	}
	if searchSpan == nil || searchSpan.Outcome != "solved" || searchSpan.Name != "RBFS" {
		t.Fatalf("search span = %+v", searchSpan)
	}
	if len(report.Caches) == 0 {
		t.Fatalf("report has no cache section")
	}

	// Heuristic quality covers every paper kind, exactly one marked used,
	// with a per-depth sample for every path state including the goal.
	if len(report.HeuristicQuality) != len(heuristic.Kinds()) {
		t.Fatalf("quality entries = %d, want %d", len(report.HeuristicQuality), len(heuristic.Kinds()))
	}
	usedCount := 0
	for _, q := range report.HeuristicQuality {
		if q.Used {
			usedCount++
			if q.Kind != "cosine" {
				t.Fatalf("used kind = %s, want cosine", q.Kind)
			}
		}
		if len(q.Samples) != report.Depth+1 {
			t.Fatalf("%s: %d samples, want depth+1 = %d", q.Kind, len(q.Samples), report.Depth+1)
		}
		last := q.Samples[len(q.Samples)-1]
		if last.TrueRemaining != 0 {
			t.Fatalf("%s: goal sample true remaining = %d", q.Kind, last.TrueRemaining)
		}
		switch q.Kind {
		case "h0":
			if q.Accuracy != 0 {
				t.Fatalf("h0 accuracy = %g, want 0 (blind search has no signal)", q.Accuracy)
			}
		case "h1", "h3", "cosine", "levenshtein":
			// h2 (promotions/demotions) is legitimately flat on a rename-only
			// workload, so only the kinds guaranteed a signal are asserted.
			if q.Accuracy <= 0 {
				t.Fatalf("%s accuracy = %g, want > 0", q.Kind, q.Accuracy)
			}
		}
	}
	if usedCount != 1 {
		t.Fatalf("used entries = %d, want 1", usedCount)
	}
}

func TestBuildReportRoundTrip(t *testing.T) {
	report, _ := runWithReport(t, 6, Options{})
	var buf bytes.Buffer
	if err := obs.WriteRunReport(&buf, report); err != nil {
		t.Fatalf("WriteRunReport: %v", err)
	}
	back, err := obs.ReadRunReport(&buf)
	if err != nil {
		t.Fatalf("ReadRunReport: %v", err)
	}
	if back.Examined != report.Examined || back.Algorithm != report.Algorithm ||
		len(back.HeuristicQuality) != len(report.HeuristicQuality) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, report)
	}
}

// TestBuildReportNamesPortfolioMember: a portfolio's report names the member
// that produced its result, with that member's K and heuristic marked used,
// not the base options the race was configured with (RBFS/cosine here).
func TestBuildReportNamesPortfolioMember(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	pres, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{{Algorithm: search.IDA, Heuristic: heuristic.H1}},
	})
	if err != nil {
		t.Fatalf("DiscoverPortfolio: %v", err)
	}
	report, err := BuildReport(pres.Result, nil, src, tgt, Options{}, nil)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	if report.Algorithm != "IDA" || report.Heuristic != "h1" || report.K != 1 {
		t.Fatalf("config = %s/%s k=%g, want IDA/h1 k=1", report.Algorithm, report.Heuristic, report.K)
	}
	var used []string
	for _, q := range report.HeuristicQuality {
		if q.Used {
			used = append(used, fmt.Sprintf("%s k=%g", q.Kind, q.K))
		}
	}
	if len(used) != 1 || used[0] != "h1 k=1" {
		t.Fatalf("used heuristic entries = %v, want [h1 k=1]", used)
	}
}

func TestBuildReportAbort(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	opts := Options{
		Algorithm: search.RBFS,
		Limits:    search.Limits{MaxStates: 3},
	}
	res, err := DiscoverContext(context.Background(), src, tgt, opts)
	if err == nil {
		t.Fatalf("expected budget abort, got %+v", res)
	}
	report, rerr := BuildReport(nil, err, src, tgt, opts, nil)
	if rerr != nil {
		t.Fatalf("BuildReport: %v", rerr)
	}
	if err := obs.ValidateRunReport(report); err != nil {
		t.Fatalf("ValidateRunReport: %v", err)
	}
	if report.Solved || report.AbortCause != "limit" || report.Error == "" {
		t.Fatalf("abort report = solved=%v cause=%q err=%q", report.Solved, report.AbortCause, report.Error)
	}
	if report.Examined == 0 {
		t.Fatalf("abort report lost the partial stats")
	}
}

// TestFlightDumpOnAbort verifies the end-to-end forensic path: a run aborted
// by its deadline marks the recorder, and the join point flushes a
// tupelo-flight/v2 dump with the recorded goal-test events.
func TestFlightDumpOnAbort(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	fr := obs.NewFlightRecorder(256)
	var dump bytes.Buffer
	fr.SetAutoDump(&dump)
	opts := Options{
		Algorithm: search.RBFS,
		Heuristic: heuristic.H0, // blind search: guaranteed to still be running at the deadline
		Limits:    search.Limits{MaxStates: 1_000_000},
		Flight:    fr,
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := DiscoverContext(ctx, src, tgt, opts)
	if err == nil {
		t.Fatalf("expected deadline abort")
	}
	if cause, ok := fr.DumpRequested(); !ok || cause != "deadline" {
		t.Fatalf("DumpRequested = %q/%v, want deadline/true", cause, ok)
	}
	if dump.Len() == 0 {
		t.Fatalf("no flight dump flushed at the join point")
	}
	if !bytes.Contains(dump.Bytes(), []byte(obs.FlightSchema)) {
		t.Fatalf("dump missing schema header: %s", dump.Bytes()[:min(200, dump.Len())])
	}
}

func TestFlightRecordsSolvedRun(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	fr := obs.NewFlightRecorder(1024)
	_, err := DiscoverContext(context.Background(), src, tgt, Options{Flight: fr})
	if err != nil {
		t.Fatalf("DiscoverContext: %v", err)
	}
	recs := fr.Records("RBFS")
	if len(recs) == 0 {
		t.Fatalf("no flight records for the RBFS ring")
	}
	var examines, finishes int
	for _, e := range recs {
		switch e.Kind {
		case obs.EvGoalTest:
			examines++
		case obs.EvRunFinish:
			finishes++
		}
	}
	if examines == 0 || finishes != 1 {
		t.Fatalf("examines=%d finishes=%d, want >0 and 1", examines, finishes)
	}
	if cause, ok := fr.DumpRequested(); ok {
		t.Fatalf("solved run requested a dump (%s)", cause)
	}
}
