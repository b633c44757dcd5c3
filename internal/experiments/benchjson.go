package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"tupelo/internal/obs"
)

// BenchSchema identifies the machine-readable benchmark report format. The
// schema is stable: fields may be added in later versions, but existing
// fields keep their names and meanings so the repo's recorded BENCH_*.json
// trajectory stays comparable across versions.
const BenchSchema = "tupelo-bench/v1"

// BenchEnv records the toolchain and machine shape a report was produced
// under — the context needed to compare states/sec numbers across commits.
type BenchEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// BenchConfig is the resolved experiment configuration. Reports and
// history lines written while the engine still had a successor worker pool
// also carry a `workers` key; decoding ignores it, so those lines stay
// comparable with the ones written now.
type BenchConfig struct {
	Budget int   `json:"budget"`
	Seed   int64 `json:"seed"`
}

// BenchMeasurement is one experimental run in wire form.
type BenchMeasurement struct {
	Experiment string `json:"experiment"`
	Label      string `json:"label,omitempty"`
	Param      int    `json:"param"`
	Algorithm  string `json:"algorithm"`
	Heuristic  string `json:"heuristic"`
	States     int    `json:"states"`
	Solved     bool   `json:"solved"`
	Censored   bool   `json:"censored"`
	PathLen    int    `json:"path_len,omitempty"`
	ElapsedNS  int64  `json:"elapsed_ns"`
	// HAccuracy is the run heuristic's quality score ∈ [0,1] along the found
	// solution path (tupelo-report/v1 semantics); 0 when censored or when
	// the heuristic has no signal. Added in a schema-compatible way: older
	// reports simply omit it.
	HAccuracy float64 `json:"h_accuracy,omitempty"`
}

// BenchQuality aggregates the heuristic-quality scores of a report's
// measurements for one heuristic kind, the per-kind rollup the tupelo-trace
// heuristic analyzer ranks. MeanStates averages over every run of the kind —
// censored runs included at their recorded (saturated) states count, exactly
// as the paper's log-scale plots count them — while MeanAccuracy averages
// over solved runs only, since censored runs have no solution path to
// profile.
type BenchQuality struct {
	Heuristic    string  `json:"heuristic"`
	Runs         int     `json:"runs"`
	Solved       int     `json:"solved"`
	MeanStates   float64 `json:"mean_states"`
	MeanAccuracy float64 `json:"mean_accuracy"`
}

// BenchAggregate summarizes a report's measurements; StatesPerSec is the
// headline throughput number perf PRs compare.
type BenchAggregate struct {
	Measurements   int     `json:"measurements"`
	Solved         int     `json:"solved"`
	Censored       int     `json:"censored"`
	TotalStates    int64   `json:"total_states"`
	TotalElapsedNS int64   `json:"total_elapsed_ns"`
	StatesPerSec   float64 `json:"states_per_sec"`
}

// BenchReport is the complete machine-readable record of one tupelo-bench
// invocation: what ran, on what, what happened, and the full metrics
// snapshot (including the latency histograms).
type BenchReport struct {
	Schema       string             `json:"schema"`
	Experiment   string             `json:"experiment"`
	GeneratedAt  time.Time          `json:"generated_at"`
	Env          BenchEnv           `json:"env"`
	Config       BenchConfig        `json:"config"`
	Measurements []BenchMeasurement `json:"measurements"`
	Aggregate    BenchAggregate     `json:"aggregate"`
	// Quality is the per-heuristic rollup of the measurements' h_accuracy
	// scores, sorted by ascending mean states (best-performing kind first).
	// Optional in the schema: reports from versions without the quality
	// profiler omit it.
	Quality []BenchQuality `json:"quality,omitempty"`
	Metrics *obs.Snapshot  `json:"metrics,omitempty"`
}

// NewBenchReport assembles a report from an experiment's measurements and
// the run's configuration, stamping the current environment and time.
func NewBenchReport(experiment string, cfg Config, ms []Measurement) *BenchReport {
	r := &BenchReport{
		Schema:      BenchSchema,
		Experiment:  experiment,
		GeneratedAt: time.Now().UTC(),
		Env: BenchEnv{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Config: BenchConfig{
			Budget: cfg.Budget,
			Seed:   cfg.Seed,
		},
		Measurements: make([]BenchMeasurement, 0, len(ms)),
	}
	for _, m := range ms {
		r.Measurements = append(r.Measurements, BenchMeasurement{
			Experiment: m.Experiment,
			Label:      m.Label,
			Param:      m.Param,
			Algorithm:  m.Algorithm.String(),
			Heuristic:  m.Heuristic.String(),
			States:     m.States,
			Solved:     !m.Censored,
			Censored:   m.Censored,
			PathLen:    m.PathLen,
			ElapsedNS:  int64(m.Duration),
			HAccuracy:  m.HAccuracy,
		})
		r.Aggregate.TotalStates += int64(m.States)
		r.Aggregate.TotalElapsedNS += int64(m.Duration)
		if m.Censored {
			r.Aggregate.Censored++
		} else {
			r.Aggregate.Solved++
		}
	}
	r.Aggregate.Measurements = len(r.Measurements)
	if r.Aggregate.TotalElapsedNS > 0 {
		r.Aggregate.StatesPerSec = float64(r.Aggregate.TotalStates) /
			(float64(r.Aggregate.TotalElapsedNS) / float64(time.Second))
	}
	r.Quality = aggregateQuality(r.Measurements)
	return r
}

// aggregateQuality rolls the measurements up into one BenchQuality row per
// heuristic kind, sorted by ascending mean states so the paper's performance
// ordering reads top to bottom.
func aggregateQuality(ms []BenchMeasurement) []BenchQuality {
	byKind := map[string]*BenchQuality{}
	var order []string
	var accSum = map[string]float64{}
	for _, m := range ms {
		q := byKind[m.Heuristic]
		if q == nil {
			q = &BenchQuality{Heuristic: m.Heuristic}
			byKind[m.Heuristic] = q
			order = append(order, m.Heuristic)
		}
		q.Runs++
		q.MeanStates += float64(m.States)
		if m.Solved {
			q.Solved++
			accSum[m.Heuristic] += m.HAccuracy
		}
	}
	out := make([]BenchQuality, 0, len(order))
	for _, kind := range order {
		q := byKind[kind]
		q.MeanStates /= float64(q.Runs)
		if q.Solved > 0 {
			q.MeanAccuracy = accSum[kind] / float64(q.Solved)
		}
		out = append(out, *q)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanStates != out[j].MeanStates {
			return out[i].MeanStates < out[j].MeanStates
		}
		return out[i].Heuristic < out[j].Heuristic
	})
	return out
}

// AttachMetrics snapshots the registry into the report.
func (r *BenchReport) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	r.Metrics = &s
}

// WriteJSON writes the report, indented for diff-friendly trajectory files.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// BenchSummary is one line of the repo's BENCH_history.jsonl trajectory: a
// report stripped to its identity and aggregate. Full reports are large (the
// measurement list plus a metrics snapshot) and the committed BENCH_*.json
// files keep only the latest one per experiment; the history file appends one
// summary line per recorded run, so the throughput trajectory across commits
// survives even though each report overwrites the last.
type BenchSummary struct {
	Schema      string         `json:"schema"`
	Experiment  string         `json:"experiment"`
	GeneratedAt time.Time      `json:"generated_at"`
	Env         BenchEnv       `json:"env"`
	Config      BenchConfig    `json:"config"`
	Aggregate   BenchAggregate `json:"aggregate"`
}

// Summary reduces the report to its history line.
func (r *BenchReport) Summary() BenchSummary {
	return BenchSummary{
		Schema:      r.Schema,
		Experiment:  r.Experiment,
		GeneratedAt: r.GeneratedAt,
		Env:         r.Env,
		Config:      r.Config,
		Aggregate:   r.Aggregate,
	}
}

// validateSummary checks one history line for internal consistency. It is
// deliberately looser than ValidateBenchReport — summaries carry no
// measurement list or metrics snapshot to cross-check.
func validateSummary(s BenchSummary) error {
	if s.Schema != BenchSchema {
		return fmt.Errorf("schema %q, want %q", s.Schema, BenchSchema)
	}
	if s.Experiment == "" {
		return fmt.Errorf("missing experiment id")
	}
	if s.GeneratedAt.IsZero() {
		return fmt.Errorf("missing generated_at")
	}
	if s.Env.GoVersion == "" || s.Env.GOMAXPROCS <= 0 {
		return fmt.Errorf("incomplete env: %+v", s.Env)
	}
	a := s.Aggregate
	if a.Measurements <= 0 || a.TotalStates < 0 || a.TotalElapsedNS < 0 || a.StatesPerSec < 0 {
		return fmt.Errorf("inconsistent aggregate: %+v", a)
	}
	if a.Solved+a.Censored != a.Measurements {
		return fmt.Errorf("aggregate solved %d + censored %d != measurements %d", a.Solved, a.Censored, a.Measurements)
	}
	return nil
}

// AppendHistory appends the summary as one JSON line to the history file at
// path, creating it if absent. The file is JSONL: independent lines, append
// only, so concurrent benchmark invocations at worst interleave whole lines.
func AppendHistory(path string, s BenchSummary) error {
	if err := validateSummary(s); err != nil {
		return fmt.Errorf("bench history: %w", err)
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseHistory parses JSONL history data, validating every line. Blank lines
// are ignored; a malformed line fails the whole parse (the file is committed
// and machine-written — damage means the trajectory can no longer be
// trusted).
func ParseHistory(data []byte) ([]BenchSummary, error) {
	var out []BenchSummary
	dec := json.NewDecoder(bytes.NewReader(data))
	for lineNo := 1; ; lineNo++ {
		var s BenchSummary
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("bench history: entry %d: %w", lineNo, err)
		}
		if err := validateSummary(s); err != nil {
			return nil, fmt.Errorf("bench history: entry %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// comparable reports whether a history entry measures the same workload as s:
// identical experiment and resolved configuration. Throughput across
// different budgets or seeds is not comparable.
func (s BenchSummary) comparable(o BenchSummary) bool {
	return s.Experiment == o.Experiment && s.Config == o.Config
}

// priorWindow is how many comparable prior sweeps the history verdict
// weighs: single sweeps of one build spread widely on shared machines (six
// back-to-back exp1 sweeps have read 373k–490k states/s), so a verdict
// against one sweep, let alone the best of all, mostly reports noise.
const priorWindow = 5

// RecentPriors returns the last priorWindow comparable history entries
// generated strictly before s, oldest first, or none if none is comparable.
// Only entries generated before s count as prior: the history normally
// already holds s's own line (append runs before the check), and a run must
// not be its own baseline.
func RecentPriors(hist []BenchSummary, s BenchSummary) []BenchSummary {
	var prior []BenchSummary
	for _, h := range hist {
		if s.comparable(h) && h.GeneratedAt.Before(s.GeneratedAt) {
			prior = append(prior, h)
		}
	}
	slices.SortStableFunc(prior, func(a, b BenchSummary) int { return a.GeneratedAt.Compare(b.GeneratedAt) })
	return prior[max(0, len(prior)-priorWindow):]
}

// RegressionReport renders a one-line verdict comparing the summary's
// throughput with the last comparable sweeps in the history: the perf
// trajectory check behind tupelo-bench -check-bench -bench-history. It
// prints their median and min–max range and says REGRESSION only below the
// range's minimum, the tolerance the spread of single sweeps calls for. The
// verdict is informational — CI machines vary too much for an exit-code
// gate — but a regression line in the log is what a reviewer greps for.
func RegressionReport(s BenchSummary, hist []BenchSummary) string {
	prior := RecentPriors(hist, s)
	if len(prior) == 0 {
		return fmt.Sprintf("bench history: no prior entry comparable to experiment %q %+v", s.Experiment, s.Config)
	}
	rates := make([]float64, len(prior))
	for i, h := range prior {
		rates[i] = h.Aggregate.StatesPerSec
	}
	slices.Sort(rates)
	med := rates[len(rates)/2]
	if len(rates)%2 == 0 {
		med = (rates[len(rates)/2-1] + med) / 2
	}
	lo, hi, cur := rates[0], rates[len(rates)-1], s.Aggregate.StatesPerSec
	window := fmt.Sprintf("the last %d comparable prior sweeps (median %.0f, range %.0f–%.0f, through %s)",
		len(prior), med, lo, hi, prior[len(prior)-1].GeneratedAt.Format("2006-01-02"))
	if cur < lo {
		return fmt.Sprintf("bench history: REGRESSION: %.0f states/sec is %.1f%% below the range of %s",
			cur, 100*(lo-cur)/lo, window)
	}
	return fmt.Sprintf("bench history: ok: %.0f states/sec, %+.1f%% against the median of %s",
		cur, 100*(cur-med)/med, window)
}

// ValidateBenchReport checks that data is a schema-valid BenchReport: the
// schema tag matches, the environment and experiment id are present, every
// measurement names its configuration, the aggregate is consistent with the
// measurement list, and the metrics snapshot carries at least one latency
// histogram (the profiling layer's output — its absence means the bench ran
// without instrumentation). It is the check behind tupelo-bench
// -check-bench and the CI benchmark-smoke step.
func ValidateBenchReport(data []byte) error {
	_, err := ParseBenchReport(data)
	return err
}

// ParseBenchReport validates data exactly as ValidateBenchReport does and
// returns the decoded report, for callers that go on to use it (the history
// regression check needs the report's summary).
func ParseBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench report: not valid JSON: %w", err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("bench report: schema %q, want %q", r.Schema, BenchSchema)
	}
	if r.Experiment == "" {
		return nil, fmt.Errorf("bench report: missing experiment id")
	}
	if r.GeneratedAt.IsZero() {
		return nil, fmt.Errorf("bench report: missing generated_at")
	}
	if r.Env.GoVersion == "" || r.Env.GOMAXPROCS <= 0 {
		return nil, fmt.Errorf("bench report: incomplete env: %+v", r.Env)
	}
	if len(r.Measurements) == 0 {
		return nil, fmt.Errorf("bench report: no measurements")
	}
	var states, elapsed int64
	for i, m := range r.Measurements {
		if m.Algorithm == "" || m.Heuristic == "" {
			return nil, fmt.Errorf("bench report: measurement %d missing algorithm/heuristic", i)
		}
		if m.States < 0 || m.ElapsedNS < 0 {
			return nil, fmt.Errorf("bench report: measurement %d has negative states/elapsed", i)
		}
		if m.Solved == m.Censored {
			return nil, fmt.Errorf("bench report: measurement %d: solved and censored must disagree", i)
		}
		if m.HAccuracy < 0 || m.HAccuracy > 1 {
			return nil, fmt.Errorf("bench report: measurement %d: h_accuracy %g outside [0,1]", i, m.HAccuracy)
		}
		states += int64(m.States)
		elapsed += m.ElapsedNS
	}
	// Quality is optional (older reports omit it), but a present section
	// must be internally consistent with the measurement list.
	if len(r.Quality) > 0 {
		runs := 0
		for i, q := range r.Quality {
			if q.Heuristic == "" || q.Runs <= 0 || q.Solved < 0 || q.Solved > q.Runs {
				return nil, fmt.Errorf("bench report: quality row %d inconsistent: %+v", i, q)
			}
			if q.MeanAccuracy < 0 || q.MeanAccuracy > 1 {
				return nil, fmt.Errorf("bench report: quality row %d: mean_accuracy %g outside [0,1]", i, q.MeanAccuracy)
			}
			runs += q.Runs
		}
		if runs != len(r.Measurements) {
			return nil, fmt.Errorf("bench report: quality rows cover %d runs, measurements list %d", runs, len(r.Measurements))
		}
	}
	if r.Aggregate.Measurements != len(r.Measurements) {
		return nil, fmt.Errorf("bench report: aggregate counts %d measurements, found %d",
			r.Aggregate.Measurements, len(r.Measurements))
	}
	if r.Aggregate.TotalStates != states || r.Aggregate.TotalElapsedNS != elapsed {
		return nil, fmt.Errorf("bench report: aggregate totals disagree with measurements")
	}
	if r.Metrics == nil {
		return nil, fmt.Errorf("bench report: missing metrics snapshot")
	}
	if len(r.Metrics.Histograms) == 0 {
		return nil, fmt.Errorf("bench report: metrics snapshot has no histograms")
	}
	return &r, nil
}
