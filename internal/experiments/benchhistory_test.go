package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// historySummary builds a valid summary line with the given throughput and
// config knobs.
func historySummary(exp string, budget int, sps float64, day int) BenchSummary {
	return BenchSummary{
		Schema:      BenchSchema,
		Experiment:  exp,
		GeneratedAt: time.Date(2026, 8, day, 12, 0, 0, 0, time.UTC),
		Env:         BenchEnv{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1},
		Config:      BenchConfig{Budget: budget, Seed: 2006},
		Aggregate: BenchAggregate{
			Measurements: 10, Solved: 9, Censored: 1,
			TotalStates: 1000, TotalElapsedNS: 1e9, StatesPerSec: sps,
		},
	}
}

// TestHistoryAppendParseRoundTrip: AppendHistory lines must parse back
// identically, and appends must accumulate.
func TestHistoryAppendParseRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	want := []BenchSummary{
		historySummary("1", 50000, 1000, 1),
		historySummary("1", 50000, 2000, 2),
		historySummary("2", 50000, 3000, 3),
	}
	for _, s := range want {
		if err := AppendHistory(path, s); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHistory(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestHistoryAppendRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	bad := historySummary("1", 50000, 1000, 1)
	bad.Schema = "wrong/v0"
	if err := AppendHistory(path, bad); err == nil {
		t.Fatal("AppendHistory accepted a summary with the wrong schema")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("rejected append still created the history file")
	}
}

func TestHistoryParseRejectsMalformedLine(t *testing.T) {
	if _, err := ParseHistory([]byte("{not json\n")); err == nil {
		t.Fatal("ParseHistory accepted malformed JSONL")
	}
	valid := filepath.Join(t.TempDir(), "hist.jsonl")
	if err := AppendHistory(valid, historySummary("1", 50000, 1000, 1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHistory(append(data, []byte(`{"schema":"tupelo-bench/v1"}`+"\n")...)); err == nil {
		t.Fatal("ParseHistory accepted an incomplete trailing line")
	}
}

// TestRegressionReportVerdicts covers every verdict: no comparable prior,
// a run inside the range of the last five comparable prior sweeps, one
// above it and one below it; and that only the last five prior sweeps count
// and non-comparable entries (different budget or experiment, the run's own
// line, later lines) never do.
func TestRegressionReportVerdicts(t *testing.T) {
	hist := []BenchSummary{
		historySummary("1", 50000, 9000, 1), // sixth-latest prior: outside the window
		historySummary("1", 50000, 2000, 2),
		historySummary("1", 50000, 3000, 3),
		historySummary("1", 10000, 9999, 4), // different budget: not comparable
		historySummary("2", 50000, 8888, 5), // different experiment: not comparable
		historySummary("1", 50000, 1000, 6),
		historySummary("1", 50000, 4000, 7),
		historySummary("1", 50000, 2500, 8),
		historySummary("1", 50000, 7777, 9),  // cur's own line: not prior
		historySummary("1", 50000, 6666, 10), // later than cur: not prior
	}
	cur := historySummary("1", 50000, 1500, 9)
	prior := RecentPriors(hist, cur)
	var got []float64
	for _, h := range prior {
		got = append(got, h.Aggregate.StatesPerSec)
	}
	if want := []float64{2000, 3000, 1000, 4000, 2500}; !slices.Equal(got, want) {
		t.Fatalf("RecentPriors = %v, want %v (oldest first)", got, want)
	}
	const window = "the last 5 comparable prior sweeps (median 2500, range 1000–4000, through 2026-08-08)"

	for _, tc := range []struct {
		sps  float64
		want string
	}{
		{1500, "bench history: ok: 1500 states/sec, -40.0% against the median of " + window},
		{1000, "bench history: ok: 1000 states/sec, -60.0% against the median of " + window},
		{5000, "bench history: ok: 5000 states/sec, +100.0% against the median of " + window},
		{500, "bench history: REGRESSION: 500 states/sec is 50.0% below the range of " + window},
	} {
		cur.Aggregate.StatesPerSec = tc.sps
		if rep := RegressionReport(cur, hist); rep != tc.want {
			t.Fatalf("%.0f states/sec: verdict\n%q\nwant\n%q", tc.sps, rep, tc.want)
		}
	}

	// Two prior sweeps: the median is their mean.
	two := historySummary("1", 50000, 3000, 3)
	if rep := RegressionReport(two, hist); !strings.Contains(rep, "ok:") || !strings.Contains(rep, "last 2 comparable prior sweeps (median 5500, range 2000–9000") {
		t.Fatalf("two-prior verdict = %q", rep)
	}

	cur.Config.Budget = 77777
	if rep := RegressionReport(cur, hist); !strings.Contains(rep, "no prior entry comparable") {
		t.Fatalf("no-prior verdict = %q", rep)
	}
	first := historySummary("1", 50000, 100, 1)
	if rep := RegressionReport(first, hist); !strings.Contains(rep, "no prior entry comparable") {
		t.Fatalf("verdict for the earliest sweep = %q", rep)
	}
}

// TestCommittedHistoryParses pins the repo's own BENCH_history.jsonl to the
// parser: the committed trajectory must stay loadable.
func TestCommittedHistoryParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_history.jsonl"))
	if err != nil {
		t.Skipf("no committed history: %v", err)
	}
	hist, err := ParseHistory(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("committed history is empty")
	}
	for i, s := range hist {
		if s.Experiment == "" {
			t.Fatalf("entry %d missing experiment", i)
		}
	}
}

// legacyHistoryLine is a history line as tupelo-bench wrote it while the
// engine still had a successor worker pool: its config carries a `workers`
// key that BenchConfig no longer has.
const legacyHistoryLine = `{"schema":"tupelo-bench/v1","experiment":"1","generated_at":"2026-08-05T20:50:14Z","env":{"go_version":"go1.24.0","goos":"linux","goarch":"amd64","gomaxprocs":1},"config":{"budget":50000,"seed":2006,"workers":0},"aggregate":{"measurements":142,"solved":136,"censored":6,"total_states":436531,"total_elapsed_ns":14042186757,"states_per_sec":31087.1}}`

// TestLegacyWorkersHistoryStaysComparable: a history line with the retired
// `workers` key parses, and a summary written now under the same budget and
// seed finds it as its prior.
func TestLegacyWorkersHistoryStaysComparable(t *testing.T) {
	hist, err := ParseHistory([]byte(legacyHistoryLine + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewBenchReport("1", Config{Budget: 50000, Seed: 2006}, sampleMeasurements())
	cur := r.Summary()
	if prior := RecentPriors(hist, cur); len(prior) != 1 || prior[0].Aggregate.StatesPerSec != 31087.1 {
		t.Fatalf("RecentPriors = %+v, want the legacy line", prior)
	}
	if rep := RegressionReport(cur, hist); strings.Contains(rep, "no prior entry comparable") {
		t.Fatalf("verdict = %q", rep)
	}
}

// TestCommittedReportFindsPrior pins the CI check `tupelo-bench
// -check-bench BENCH_exp1.json -bench-history BENCH_history.jsonl`: the
// committed report and history, both written with a `workers` key, stay
// valid and comparable.
func TestCommittedReportFindsPrior(t *testing.T) {
	report, err := os.ReadFile(filepath.Join("..", "..", "BENCH_exp1.json"))
	if err != nil {
		t.Skipf("no committed report: %v", err)
	}
	history, err := os.ReadFile(filepath.Join("..", "..", "BENCH_history.jsonl"))
	if err != nil {
		t.Skipf("no committed history: %v", err)
	}
	if err := ValidateBenchReport(report); err != nil {
		t.Fatal(err)
	}
	var r BenchReport
	if err := json.Unmarshal(report, &r); err != nil {
		t.Fatal(err)
	}
	hist, err := ParseHistory(history)
	if err != nil {
		t.Fatal(err)
	}
	if len(RecentPriors(hist, r.Summary())) == 0 {
		t.Fatalf("no prior for the committed report: %s", RegressionReport(r.Summary(), hist))
	}
}
