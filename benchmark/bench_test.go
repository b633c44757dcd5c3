package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestExp1PassReproducesBenchExp1 pins one exp1-sweep pass to the
// BENCH_exp1.json aggregate (436,531 states examined, 136 solved, 6
// censored), so states_per_s continues the BENCH_history.jsonl series, and
// checks that the traced pass's ledger parts plus residual equal its wall.
func TestExp1PassReproducesBenchExp1(t *testing.T) {
	w := newDiscoveryWorkload(exp1Tasks, t.TempDir())
	if err := w.setup(true); err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.failures) > 0 {
		t.Fatalf("failures: %v", p.failures)
	}
	censored := p.discoveries - p.solved
	if p.states != 436531 || p.solved != 136 || censored != 6 {
		t.Errorf("exp1 pass: states=%d solved=%d censored=%d, want 436531/136/6", p.states, p.solved, censored)
	}
	m := p.layers
	parts := m["core.setup_s"] + m["core.expand_s"] + m["relation.goaltest_s"] + m["search.self_s"] + m["ledger.residual_s"]
	if math.Abs(parts-m["ledger.wall_s"]) > 1e-9 {
		t.Errorf("ledger parts sum to %g s, wall is %g s", parts, m["ledger.wall_s"])
	}
	expand := m["fira.apply_s"] + m["heuristic.prewarm_s"] + m["core.movegen_self_s"]
	if math.Abs(expand-m["core.expand_s"]) > 1e-9 {
		t.Errorf("expansion parts sum to %g s, core.expand_s is %g s", expand, m["core.expand_s"])
	}
	for _, k := range []string{"critio.parse_us", "repo.put_ms", "repo.open_s"} {
		if m[k] <= 0 {
			t.Errorf("%s = %g, want a measured time", k, m[k])
		}
	}
}

// TestServeSeedDrivesStream checks that the seed drives the serve-mix
// inputs: a second seed draws a different request stream, and that stream
// still certifies end to end with failed_frac = 0. It also checks that the
// keys the benchmark derives from its generated databases are the keys the
// server derives from the request text.
func TestServeSeedDrivesStream(t *testing.T) {
	a, err := genServeInputs(2006)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genServeInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	if streamKeys(a) == streamKeys(b) {
		t.Fatal("seeds 2006 and 7 drew the same request stream")
	}
	for c := range b.streams {
		for _, rq := range b.streams[c] {
			key, err := parsePair(rq.pair.srcText, rq.pair.tgtText)
			if err != nil {
				t.Fatal(err)
			}
			if key != rq.pair.key {
				t.Fatalf("%s: generated key %s, parsed key %s", rq.pair.label, rq.pair.key, key)
			}
		}
	}

	w, err := newServeWorkload(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(false); err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(false)
	if terr := w.teardown(); terr != nil {
		t.Fatal(terr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(p.failures) > 0 {
		t.Fatalf("failed_frac = %d/%d: %v", len(p.failures), p.attempted, p.failures)
	}
	if p.classes["hit"].succeeded != clients*hitsPerClient || p.classes["cold"].succeeded != clients*coldPerClient {
		t.Errorf("class outcomes: cold %+v, hit %+v", *p.classes["cold"], *p.classes["hit"])
	}
}

// streamKeys concatenates the repository keys of every request.
func streamKeys(in *serveInputs) string {
	var s string
	for c := range in.streams {
		for _, rq := range in.streams[c] {
			s += rq.pair.key
		}
	}
	return s
}

// TestBenchmarkJSONMatchesMetrics checks that the repository's
// BENCHMARK.json declares exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name, 2006, t.TempDir()); err != nil {
			t.Errorf("workload %q: %v", wl.Name, err)
		}
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer = %v, program reports %v", layers, perLayer)
	}
}
