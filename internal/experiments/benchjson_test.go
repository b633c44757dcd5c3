package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/search"
)

func sampleMeasurements() []Measurement {
	return []Measurement{
		{
			Experiment: "exp1", Label: "synthetic", Param: 4,
			Algorithm: search.RBFS, Heuristic: heuristic.Cosine,
			States: 12, PathLen: 9, Duration: 3 * time.Millisecond,
		},
		{
			Experiment: "exp1", Label: "synthetic", Param: 8,
			Algorithm: search.IDA, Heuristic: heuristic.H0,
			States: 50000, Censored: true, Duration: 2 * time.Second,
		},
	}
}

func sampleRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Histogram(obs.Name("search.goaltest.seconds", "algo", "RBFS")).Observe(time.Microsecond)
	return reg
}

func TestBenchReportRoundTrip(t *testing.T) {
	cfg := Config{Budget: 50000, Seed: 1}
	r := NewBenchReport("exp1", cfg, sampleMeasurements())
	r.AttachMetrics(sampleRegistry())

	if r.Schema != BenchSchema || r.Experiment != "exp1" {
		t.Fatalf("header = %q %q", r.Schema, r.Experiment)
	}
	if r.Aggregate.Measurements != 2 || r.Aggregate.Solved != 1 || r.Aggregate.Censored != 1 {
		t.Fatalf("aggregate = %+v", r.Aggregate)
	}
	if r.Aggregate.TotalStates != 50012 {
		t.Fatalf("total states = %d", r.Aggregate.TotalStates)
	}
	if r.Aggregate.StatesPerSec <= 0 {
		t.Fatalf("states/sec = %g", r.Aggregate.StatesPerSec)
	}
	if r.Measurements[0].Algorithm != "RBFS" || r.Measurements[0].Heuristic != "cosine" {
		t.Fatalf("measurement 0 = %+v", r.Measurements[0])
	}
	if !r.Measurements[0].Solved || r.Measurements[1].Solved {
		t.Fatal("solved must be the complement of censored")
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(buf.Bytes()); err != nil {
		t.Fatalf("written report fails its own validator: %v", err)
	}
	// The wire form keeps the documented field names.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "experiment", "generated_at", "env", "config", "measurements", "aggregate", "metrics"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("report JSON missing %q: %v", key, raw)
		}
	}
}

func TestValidateBenchReportRejects(t *testing.T) {
	valid := func() *BenchReport {
		r := NewBenchReport("exp1", Config{Budget: 1}, sampleMeasurements())
		r.AttachMetrics(sampleRegistry())
		return r
	}
	cases := []struct {
		name  string
		bad   func(r *BenchReport)
		wants string
	}{
		{"wrong schema", func(r *BenchReport) { r.Schema = "v0" }, "schema"},
		{"no experiment", func(r *BenchReport) { r.Experiment = "" }, "experiment"},
		{"no timestamp", func(r *BenchReport) { r.GeneratedAt = time.Time{} }, "generated_at"},
		{"no env", func(r *BenchReport) { r.Env.GoVersion = "" }, "env"},
		{"no measurements", func(r *BenchReport) { r.Measurements = nil }, "measurements"},
		{"unnamed config", func(r *BenchReport) { r.Measurements[0].Algorithm = "" }, "algorithm"},
		{"negative states", func(r *BenchReport) { r.Measurements[0].States = -1 }, "negative"},
		{"solved and censored", func(r *BenchReport) { r.Measurements[1].Solved = true }, "disagree"},
		{"aggregate count drift", func(r *BenchReport) { r.Aggregate.Measurements = 9 }, "aggregate"},
		{"aggregate total drift", func(r *BenchReport) { r.Aggregate.TotalStates++ }, "totals"},
		{"no metrics", func(r *BenchReport) { r.Metrics = nil }, "metrics"},
		{"no histograms", func(r *BenchReport) { r.Metrics.Histograms = nil }, "histogram"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.bad(r)
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			verr := ValidateBenchReport(data)
			if verr == nil {
				t.Fatal("validator accepted a corrupted report")
			}
			if !strings.Contains(verr.Error(), tc.wants) {
				t.Fatalf("error %q does not mention %q", verr, tc.wants)
			}
		})
	}
	if err := ValidateBenchReport([]byte("{")); err == nil {
		t.Fatal("validator accepted malformed JSON")
	}
}

// TestCalibrateFeedsCollect pins the Collect hook on the one experiment
// whose public return type aggregates measurements away: a calibration
// sweep must still stream per-run Measurements (the CI benchmark-smoke
// step runs -exp calibrate -bench-out).
func TestCalibrateFeedsCollect(t *testing.T) {
	var ms []Measurement
	cfg := Config{
		Budget:  2000,
		Collect: func(m Measurement) { ms = append(ms, m) },
		Metrics: obs.NewRegistry(),
	}
	_, err := RunCalibrate(CalibrateOptions{
		Ks:         []int{5},
		Heuristics: []heuristic.Kind{heuristic.Cosine},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("calibration sweep produced no collected measurements")
	}
	for i, m := range ms {
		if m.Experiment != "calibrate" || m.Param != 5 {
			t.Fatalf("measurement %d = %+v", i, m)
		}
	}
	// The collected stream + registry must assemble into a valid report —
	// exactly what the CI smoke step asserts end-to-end.
	r := NewBenchReport("calibrate", cfg, ms)
	r.AttachMetrics(cfg.Metrics)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchReport(buf.Bytes()); err != nil {
		t.Fatalf("calibration report invalid: %v", err)
	}
}
