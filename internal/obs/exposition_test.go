package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exact exposition for a registry of
// documented and undocumented families: HELP lines appear once per
// documented family (including the derived timer families, which share the
// base timer's text), undocumented families get only their TYPE line, and
// sample ordering is stable.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("search.examined", "algo", "IDA")).Add(3)
	r.Counter(Name("search.examined", "algo", "RBFS")).Add(7)
	r.Counter("custom.counter").Inc()
	r.Gauge(Name("heuristic.cache.entries", "cache", "cosine/k=24")).Set(5)
	r.Timer(Name("portfolio.member.duration", "member", "rbfs/cosine")).Observe(2 * time.Second)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE tupelo_custom_counter counter
tupelo_custom_counter 1
# HELP tupelo_search_examined States examined (goal-tested) by the search, per algorithm.
# TYPE tupelo_search_examined counter
tupelo_search_examined{algo="IDA"} 3
tupelo_search_examined{algo="RBFS"} 7
# HELP tupelo_heuristic_cache_entries Heuristic-cache resident entries, per cache.
# TYPE tupelo_heuristic_cache_entries gauge
tupelo_heuristic_cache_entries{cache="cosine/k=24"} 5
# HELP tupelo_portfolio_member_duration_count Wall-clock duration of portfolio members, per member configuration.
# TYPE tupelo_portfolio_member_duration_count counter
tupelo_portfolio_member_duration_count{member="rbfs/cosine"} 1
# HELP tupelo_portfolio_member_duration_seconds_total Wall-clock duration of portfolio members, per member configuration.
# TYPE tupelo_portfolio_member_duration_seconds_total counter
tupelo_portfolio_member_duration_seconds_total{member="rbfs/cosine"} 2
# HELP tupelo_portfolio_member_duration_max_seconds Wall-clock duration of portfolio members, per member configuration.
# TYPE tupelo_portfolio_member_duration_max_seconds gauge
tupelo_portfolio_member_duration_max_seconds{member="rbfs/cosine"} 2
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition drifted from golden output.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePrometheusHistogramHelp checks the histogram path emits its HELP
// line ahead of the TYPE header (the golden test above keeps histograms out
// to stay readable — 35 bucket lines per family).
func TestWritePrometheusHistogramHelp(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Name("search.expand.seconds", "algo", "RBFS")).Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP tupelo_search_expand_seconds Latency of successor expansions.\n" +
		"# TYPE tupelo_search_expand_seconds histogram\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, buf.String())
	}
}

// TestJSONTracerConcurrentWriters hammers one JSONTracer from many
// goroutines (run under -race in CI) and checks the output is still valid
// JSON Lines with nothing torn or lost: concurrent events must interleave
// at line granularity.
func TestJSONTracerConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracer(&buf)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Event(Event{Kind: EvGoalTest, Label: "RBFS", Seq: g*perG + i, Depth: i % 7})
			}
		}(g)
	}
	wg.Wait()

	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON (%v): %s", lines, err, sc.Text())
		}
		if rec["kind"] != "goal-test" {
			t.Fatalf("line %d: kind = %v", lines, rec["kind"])
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != goroutines*perG {
		t.Fatalf("got %d lines, want %d (events lost or torn)", lines, goroutines*perG)
	}
}
