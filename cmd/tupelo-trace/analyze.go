package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"tupelo/internal/experiments"
	"tupelo/internal/obs"
)

// input is one parsed artifact file; exactly one of the payload fields is
// set, matching kind.
type input struct {
	path   string
	kind   string // "report", "bench", "flight", "trace"
	report *obs.RunReport
	bench  *experiments.BenchReport
	flight *flightDump
	trace  []obs.EventRecord
}

// flightDump is a parsed tupelo-flight/v2 JSONL stream.
type flightDump struct {
	Header  obs.FlightHeader
	Records []obs.EventRecord
}

// detectInput sniffs the artifact format from the first JSON value: the
// single-document reports carry a schema tag, a flight dump is a JSONL
// stream whose header line carries one, and a trace is a JSONL stream of
// kind-tagged events.
func detectInput(data []byte) (*input, error) {
	var head struct {
		Schema string `json:"schema"`
		Kind   string `json:"kind"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&head); err != nil {
		return nil, fmt.Errorf("not a tupelo artifact (invalid JSON: %v)", err)
	}
	switch head.Schema {
	case obs.ReportSchema:
		r, err := obs.ReadRunReport(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return &input{kind: "report", report: r}, nil
	case experiments.BenchSchema:
		if err := experiments.ValidateBenchReport(data); err != nil {
			return nil, err
		}
		var b experiments.BenchReport
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, err
		}
		return &input{kind: "bench", bench: &b}, nil
	case obs.FlightSchema:
		return parseFlight(data)
	case "":
		if head.Kind != "" {
			return parseTrace(data)
		}
	}
	return nil, fmt.Errorf("unrecognized artifact (schema %q)", head.Schema)
}

func parseFlight(data []byte) (*input, error) {
	d := &flightDump{}
	sc := newLineScanner(data)
	if !sc.Scan() {
		return nil, fmt.Errorf("flight dump: empty")
	}
	if err := json.Unmarshal(sc.Bytes(), &d.Header); err != nil {
		return nil, fmt.Errorf("flight dump header: %v", err)
	}
	recs, err := parseRecords(sc, "flight dump record")
	d.Records = recs
	return &input{kind: "flight", flight: d}, err
}

func parseTrace(data []byte) (*input, error) {
	recs, err := parseRecords(newLineScanner(data), "trace event")
	return &input{kind: "trace", trace: recs}, err
}

// parseRecords decodes the remaining JSONL lines as event records.
func parseRecords(sc *bufio.Scanner, what string) ([]obs.EventRecord, error) {
	var recs []obs.EventRecord
	for sc.Scan() {
		var rec obs.EventRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s %d: %v", what, len(recs), err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// newLineScanner returns a scanner sized for long JSONL lines.
func newLineScanner(data []byte) *bufio.Scanner {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

// summaryCmd renders the artifact's one-page overview.
func summaryCmd(w io.Writer, in *input) error {
	switch in.kind {
	case "report":
		return summarizeReport(w, in.report)
	case "bench":
		return summarizeBench(w, in.bench)
	case "flight":
		return summarizeFlight(w, in.flight)
	case "trace":
		return summarizeTrace(w, in.trace)
	}
	return fmt.Errorf("summary: unsupported artifact kind %q", in.kind)
}

func summarizeReport(w io.Writer, r *obs.RunReport) error {
	outcome := "solved"
	switch {
	case r.Partial:
		outcome = "partial (best-effort, aborted: " + r.AbortCause + ")"
	case !r.Solved:
		outcome = "failed"
		if r.AbortCause != "" {
			outcome += " (" + r.AbortCause + ")"
		}
	}
	fmt.Fprintf(w, "run report (%s)\n", r.Schema)
	fmt.Fprintf(w, "  config:   %s / %s k=%g\n", r.Algorithm, r.Heuristic, r.K)
	fmt.Fprintf(w, "  outcome:  %s\n", outcome)
	if r.Error != "" {
		fmt.Fprintf(w, "  error:    %s\n", r.Error)
	}
	fmt.Fprintf(w, "  effort:   examined=%d generated=%d depth=%d", r.Examined, r.Generated, r.Depth)
	if r.EBF > 0 {
		fmt.Fprintf(w, " ebf=%.3f", r.EBF)
	}
	if r.DurationNS > 0 {
		fmt.Fprintf(w, " wall=%s", time.Duration(r.DurationNS).Round(time.Microsecond))
	}
	fmt.Fprintln(w)
	for _, c := range r.Caches {
		fmt.Fprintf(w, "  cache %-14s hits=%-8d misses=%-8d hit-rate=%.1f%%\n", c.Name, c.Hits, c.Misses, 100*c.HitRate)
	}
	if r.Memo != nil {
		fmt.Fprintf(w, "  memo  %-14s hits=%-8d misses=%-8d hit-rate=%.1f%%\n", r.Memo.Name, r.Memo.Hits, r.Memo.Misses, 100*r.Memo.HitRate)
	}
	if best := bestQuality(r.HeuristicQuality); best != nil {
		fmt.Fprintf(w, "  best heuristic along solution path: %s (accuracy %.3f; run `tupelo-trace heuristic` for the ranking)\n",
			best.Kind, best.Accuracy)
	}
	if r.Span != nil {
		fmt.Fprintln(w, "  spans:")
		writeSpan(w, r.Span, "    ")
	}
	if r.Perf != nil {
		writeProfile(w, r.Perf)
	}
	return nil
}

// writeProfile renders a report's performance profile: the expansion line,
// then the depth, operator and timeline tables.
func writeProfile(w io.Writer, p *obs.RunProfile) {
	fmt.Fprintf(w, "expansions: %d (total %s); moves offered: %d\n",
		p.Expansions, time.Duration(p.ExpandNS), p.Moves)
	if len(p.Depths) > 0 {
		fmt.Fprintf(w, "%-6s %11s %8s\n", "depth", "expansions", "moves")
		for _, d := range p.Depths {
			fmt.Fprintf(w, "%-6d %11d %8d\n", d.Depth, d.Expansions, d.Moves)
		}
	}
	if len(p.Ops) > 0 {
		kinds := make([]string, 0, len(p.Ops))
		for k := range p.Ops {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "%-14s %9s %8s %12s %10s\n", "operator", "proposed", "applied", "apply total", "apply max")
		for _, k := range kinds {
			op := p.Ops[k]
			fmt.Fprintf(w, "%-14s %9d %8d %12s %10s\n", k, op.Proposed, op.Applied,
				time.Duration(op.ApplyTotalNS), time.Duration(op.ApplyMaxNS))
		}
	}
	if len(p.Timeline) > 1 {
		fmt.Fprintf(w, "timeline (%d checkpoints, stride %d states):\n", len(p.Timeline), p.Stride)
		// Render at most 10 evenly spaced rows so long runs stay readable.
		step := (len(p.Timeline) + 9) / 10
		prev := obs.ProfileCheckpoint{}
		for i := 0; i < len(p.Timeline); i += step {
			c := p.Timeline[i]
			fmt.Fprintf(w, "  +%-12s %8d states %10.0f states/sec %6.1f%% cache hits",
				time.Duration(c.OffsetNS), c.Examined, statesPerSec(prev, c), hitPercent(c.CacheHits, c.CacheMisses))
			if c.MemoHits+c.MemoMisses > 0 {
				fmt.Fprintf(w, " %6.1f%% memo hits", hitPercent(c.MemoHits, c.MemoMisses))
			}
			fmt.Fprintln(w)
			prev = c
		}
	}
	if p.SlicesDropped > 0 {
		fmt.Fprintf(w, "(%d expansion slices beyond the first %d not recorded)\n", p.SlicesDropped, len(p.Slices))
	}
}

// statesPerSec is the throughput between two checkpoints; 0 when no time
// passed.
func statesPerSec(prev, c obs.ProfileCheckpoint) float64 {
	if dt := c.OffsetNS - prev.OffsetNS; dt > 0 {
		return float64(c.Examined-prev.Examined) / time.Duration(dt).Seconds()
	}
	return 0
}

// hitPercent is a hit rate in percent; 0 without lookups.
func hitPercent(hits, misses int64) float64 {
	if n := hits + misses; n > 0 {
		return 100 * float64(hits) / float64(n)
	}
	return 0
}

func bestQuality(qs []obs.HeuristicQuality) *obs.HeuristicQuality {
	var best *obs.HeuristicQuality
	for i := range qs {
		if best == nil || qs[i].Accuracy > best.Accuracy {
			best = &qs[i]
		}
	}
	return best
}

// writeSpan renders the span tree, one line per span, children indented.
func writeSpan(w io.Writer, s *obs.Span, indent string) {
	line := fmt.Sprintf("%s%s %s", indent, s.Kind, s.Name)
	if s.Outcome != "" {
		line += " [" + s.Outcome + "]"
	}
	if s.Examined > 0 {
		line += fmt.Sprintf(" examined=%d", s.Examined)
	}
	if s.DurationNS > 0 {
		line += fmt.Sprintf(" %s", time.Duration(s.DurationNS).Round(time.Microsecond))
	}
	if s.Error != "" {
		line += " err=" + s.Error
	}
	fmt.Fprintln(w, line)
	for _, c := range s.Children {
		writeSpan(w, c, indent+"  ")
	}
}

func summarizeBench(w io.Writer, b *experiments.BenchReport) error {
	fmt.Fprintf(w, "bench report (%s): experiment %s\n", b.Schema, b.Experiment)
	fmt.Fprintf(w, "  env:      %s %s/%s gomaxprocs=%d\n", b.Env.GoVersion, b.Env.GOOS, b.Env.GOARCH, b.Env.GOMAXPROCS)
	fmt.Fprintf(w, "  config:   budget=%d seed=%d\n", b.Config.Budget, b.Config.Seed)
	a := b.Aggregate
	fmt.Fprintf(w, "  runs:     %d (%d solved, %d censored)\n", a.Measurements, a.Solved, a.Censored)
	fmt.Fprintf(w, "  effort:   %d states in %s (%.0f states/sec)\n",
		a.TotalStates, time.Duration(a.TotalElapsedNS).Round(time.Millisecond), a.StatesPerSec)
	if len(b.Quality) > 0 {
		fmt.Fprintln(w, "  heuristics (by mean states; run `tupelo-trace heuristic` for the quality ranking):")
		for _, q := range b.Quality {
			fmt.Fprintf(w, "    %-12s runs=%-3d solved=%-3d mean-states=%-10.1f mean-accuracy=%.3f\n",
				q.Heuristic, q.Runs, q.Solved, q.MeanStates, q.MeanAccuracy)
		}
	}
	return nil
}

func summarizeFlight(w io.Writer, d *flightDump) error {
	h := d.Header
	fmt.Fprintf(w, "flight dump (%s): %d rings x %d records", h.Schema, h.Rings, h.RingSize)
	if h.Cause != "" {
		fmt.Fprintf(w, ", cause: %s", h.Cause)
	}
	fmt.Fprintln(w)
	for _, ring := range ringsOf(d.Records) {
		byKind := map[string]int{}
		for _, rec := range ring {
			byKind[rec.Kind]++
		}
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		var parts []string
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s=%d", k, byKind[k]))
		}
		last := ring[len(ring)-1]
		fmt.Fprintf(w, "  ring %d %-18s %6d records (%s), last: %s at +%s\n",
			last.Ring, last.Label, len(ring), strings.Join(parts, " "),
			payload(last), time.Duration(last.AtNS).Round(time.Microsecond))
	}
	return nil
}

// ringsOf splits dump records into their rings, in dump order: a dump
// writes each ring's records contiguously, and two rings may share a label.
func ringsOf(recs []obs.EventRecord) [][]obs.EventRecord {
	var rings [][]obs.EventRecord
	start := 0
	for i := 1; i <= len(recs); i++ {
		if i == len(recs) || recs[i].Ring != recs[start].Ring {
			rings = append(rings, recs[start:i])
			start = i
		}
	}
	return rings
}

// payload renders a record's kind and its nonzero payload fields.
func payload(rec obs.EventRecord) string {
	s := rec.Kind
	for _, f := range []struct {
		name string
		v    int
	}{{"seq", rec.Seq}, {"depth", rec.Depth}, {"n", rec.N}} {
		if f.v != 0 {
			s += fmt.Sprintf(" %s=%d", f.name, f.v)
		}
	}
	if rec.Goal {
		s += " goal"
	}
	if rec.Err != "" {
		s += " err=" + rec.Err
	}
	return s
}

func summarizeTrace(w io.Writer, events []obs.EventRecord) error {
	byKind := map[string]int{}
	var order []string
	solved := false
	for _, e := range events {
		if byKind[e.Kind] == 0 {
			order = append(order, e.Kind)
		}
		byKind[e.Kind]++
		if e.Kind == "run-finish" && e.Goal {
			solved = true
		}
	}
	fmt.Fprintf(w, "JSONL trace: %d events, solved=%v\n", len(events), solved)
	for _, k := range order {
		fmt.Fprintf(w, "  %-14s %d\n", k, byKind[k])
	}
	return nil
}

// heuristicCmd ranks heuristics by quality: from a run report, the
// solution-path profile of every kind; from a bench report, the per-kind
// accuracy/states rollup plus the rank consistency between the two orderings
// — the check that the quality score reproduces the paper's states-examined
// ranking.
func heuristicCmd(w io.Writer, in *input) error {
	switch in.kind {
	case "report":
		qs := append([]obs.HeuristicQuality(nil), in.report.HeuristicQuality...)
		if len(qs) == 0 {
			return fmt.Errorf("heuristic: report has no heuristic-quality section (unsolved run?)")
		}
		sort.Slice(qs, func(i, j int) bool { return qs[i].Accuracy > qs[j].Accuracy })
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "rank\theuristic\taccuracy\tcorrelation\tmean-abs-err\tadmissibility-violations\tused")
		for i, q := range qs {
			used := ""
			if q.Used {
				used = "*"
			}
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.3f\t%.3f\t%d\t%s\n",
				i+1, q.Kind, q.Accuracy, q.Correlation, q.MeanAbsErr, q.AdmissibilityViolations, used)
		}
		return tw.Flush()
	case "bench":
		rows := in.bench.Quality
		if len(rows) == 0 {
			return fmt.Errorf("heuristic: bench report has no quality section (produced by an older tupelo-bench?)")
		}
		ranked := append([]experiments.BenchQuality(nil), rows...)
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].MeanAccuracy > ranked[j].MeanAccuracy })
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "rank\theuristic\tmean-accuracy\tmean-states\truns\tsolved")
		for i, q := range ranked {
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.1f\t%d\t%d\n", i+1, q.Heuristic, q.MeanAccuracy, q.MeanStates, q.Runs, q.Solved)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		rho := QualityConsistency(rows)
		fmt.Fprintf(w, "ordering consistency (accuracy rank vs states rank, Spearman): %.3f\n", rho)
		if rho > 0 {
			fmt.Fprintln(w, "higher-accuracy heuristics examined fewer states, as the paper's §5 ranking predicts")
		}
		return nil
	}
	return fmt.Errorf("heuristic: need a run report or bench report, got %s", in.kind)
}

// QualityConsistency is the Spearman rank correlation between the
// per-heuristic mean accuracy (descending) and mean states examined
// (ascending): +1 means the quality score reproduces the states-examined
// ordering of the paper exactly, 0 means no relationship. Ties get average
// ranks.
func QualityConsistency(rows []experiments.BenchQuality) float64 {
	n := len(rows)
	if n < 2 {
		return 0
	}
	acc := make([]float64, n)
	states := make([]float64, n)
	for i, q := range rows {
		// Negate accuracy so both vectors rank "better" as "smaller", making
		// a consistent ordering correlate positively.
		acc[i] = -q.MeanAccuracy
		states[i] = q.MeanStates
	}
	ra, rs := ranks(acc), ranks(states)
	var num, da, ds float64
	meanRank := float64(n+1) / 2
	for i := 0; i < n; i++ {
		a, s := ra[i]-meanRank, rs[i]-meanRank
		num += a * s
		da += a * a
		ds += s * s
	}
	if da == 0 || ds == 0 {
		return 0
	}
	return num / math.Sqrt(da*ds)
}

// ranks assigns 1-based average ranks (ties share the mean of their span).
func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// diffCmd compares two artifacts of the same kind.
func diffCmd(w io.Writer, oldIn, newIn *input) error {
	if oldIn.kind != newIn.kind {
		return fmt.Errorf("diff: artifact kinds differ (%s vs %s)", oldIn.kind, newIn.kind)
	}
	switch oldIn.kind {
	case "report":
		a, b := oldIn.report, newIn.report
		fmt.Fprintf(w, "run report diff: %s/%s -> %s/%s\n", a.Algorithm, a.Heuristic, b.Algorithm, b.Heuristic)
		diffInt(w, "examined", int64(a.Examined), int64(b.Examined))
		diffInt(w, "generated", int64(a.Generated), int64(b.Generated))
		diffInt(w, "depth", int64(a.Depth), int64(b.Depth))
		diffFloat(w, "ebf", a.EBF, b.EBF)
		if a.DurationNS > 0 && b.DurationNS > 0 {
			diffInt(w, "duration_ns", a.DurationNS, b.DurationNS)
		}
		return nil
	case "bench":
		a, b := oldIn.bench, newIn.bench
		fmt.Fprintf(w, "bench report diff: experiment %s -> %s\n", a.Experiment, b.Experiment)
		diffInt(w, "total_states", a.Aggregate.TotalStates, b.Aggregate.TotalStates)
		diffFloat(w, "states_per_sec", a.Aggregate.StatesPerSec, b.Aggregate.StatesPerSec)
		diffInt(w, "solved", int64(a.Aggregate.Solved), int64(b.Aggregate.Solved))
		diffInt(w, "censored", int64(a.Aggregate.Censored), int64(b.Aggregate.Censored))
		oldByKind := map[string]experiments.BenchQuality{}
		for _, q := range a.Quality {
			oldByKind[q.Heuristic] = q
		}
		for _, q := range b.Quality {
			if prev, ok := oldByKind[q.Heuristic]; ok {
				diffFloat(w, "mean_states["+q.Heuristic+"]", prev.MeanStates, q.MeanStates)
			}
		}
		return nil
	}
	return fmt.Errorf("diff: unsupported artifact kind %q", oldIn.kind)
}

func diffInt(w io.Writer, name string, a, b int64) {
	fmt.Fprintf(w, "  %-24s %12d -> %-12d%s\n", name, a, b, pct(float64(a), float64(b)))
}

func diffFloat(w io.Writer, name string, a, b float64) {
	fmt.Fprintf(w, "  %-24s %12.3f -> %-12.3f%s\n", name, a, b, pct(a, b))
}

func pct(a, b float64) string {
	if a == 0 {
		return ""
	}
	d := 100 * (b - a) / a
	return fmt.Sprintf(" (%+.1f%%)", d)
}
