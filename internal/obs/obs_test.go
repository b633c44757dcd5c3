package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("search.examined")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("search.examined") != c {
		t.Fatal("counter lookup not stable")
	}

	g := r.Gauge("pool.workers")
	g.Set(8)
	g.Add(-2)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}

	tm := r.Timer("expand")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(5 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 7*time.Millisecond || tm.MaxValue() != 5*time.Millisecond {
		t.Fatalf("timer = (%d, %s, %s)", tm.Count(), tm.Total(), tm.MaxValue())
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	tm := r.Timer("x")
	c.Inc()
	c.Add(3)
	g.Set(7)
	g.Add(1)
	tm.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || tm.Count() != 0 || tm.Total() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Timers) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestRegistryConcurrency exercises concurrent get-or-create and updates;
// meaningful under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %d, want 8000", got)
	}
	if got := r.Timer("t").Count(); got != 8000 {
		t.Fatalf("timer count = %d, want 8000", got)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("search.examined", "algo", "RBFS")).Add(42)
	r.Gauge("pool.workers").Set(4)
	r.Timer("expand").Observe(3 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON exposition: %v\n%s", err, buf.String())
	}
	if s.Counters[`search.examined{algo="RBFS"}`] != 42 {
		t.Fatalf("examined missing from snapshot: %v", s.Counters)
	}
	if s.Gauges["pool.workers"] != 4 {
		t.Fatalf("gauge missing: %v", s.Gauges)
	}
	if ts := s.Timers["expand"]; ts.Count != 1 || ts.TotalNS != int64(3*time.Millisecond) {
		t.Fatalf("timer snapshot = %+v", s.Timers["expand"])
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("search.examined", "algo", "RBFS")).Add(7)
	r.Gauge("pool.workers").Set(2)
	r.Timer("portfolio.race").Observe(1500 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tupelo_search_examined counter",
		`tupelo_search_examined{algo="RBFS"} 7`,
		"tupelo_pool_workers 2",
		"tupelo_portfolio_race_count 1",
		"tupelo_portfolio_race_seconds_total 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerServesBothFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp := httptest.NewRecorder()
	r.Handler().ServeHTTP(resp, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(resp.Body.String(), "tupelo_hits 1") {
		t.Fatalf("prometheus body: %s", resp.Body.String())
	}
	resp = httptest.NewRecorder()
	r.Handler().ServeHTTP(resp, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var s Snapshot
	if err := json.Unmarshal(resp.Body.Bytes(), &s); err != nil || s.Counters["hits"] != 1 {
		t.Fatalf("json body (%v): %s", err, resp.Body.String())
	}
}

func TestName(t *testing.T) {
	if got := Name("a.b"); got != "a.b" {
		t.Fatalf("Name = %q", got)
	}
	if got := Name("a.b", "k", "v", "x", "y"); got != `a.b{k="v",x="y"}` {
		t.Fatalf("Name = %q", got)
	}
	// Values are quoted exactly as fmt's %q quotes a string.
	for _, v := range []string{
		`say "hi"`, `C:\dir`, "two\nlines", "a\tb", "Größe ✓ 名前", "bad\xffbyte", "",
		strings.Repeat("long ", 40),
	} {
		want := "m{" + fmt.Sprintf("%s=%q", "k", v) + "}"
		if got := Name("m", "k", v); got != want {
			t.Errorf("Name(%q) = %s, want %s", v, got, want)
		}
		want = "m{" + fmt.Sprintf("%s=%q", "op", "x") + "," + fmt.Sprintf("%s=%q", "k", v) + "}"
		if got := Name("m", "op", "x", "k", v); got != want {
			t.Errorf("Name(op, %q) = %s, want %s", v, got, want)
		}
	}
}

// TestCollectorConcurrent is meaningful under -race: many goroutines emit
// into one Collector, as portfolio members do.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Event(Event{Kind: EvCacheHit})
			}
		}()
	}
	wg.Wait()
	if got := c.Count(EvCacheHit); got != 2000 {
		t.Fatalf("collected %d events, want 2000", got)
	}
	if got := c.Count(); got != 2000 {
		t.Fatalf("Count() = %d, want 2000", got)
	}
}

func TestMultiTracer(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	m := MultiTracer(a, nil, Nop, b)
	m.Event(Event{Kind: EvRunStart})
	if a.Count() != 1 || b.Count() != 1 {
		t.Fatal("multi tracer must fan out")
	}
	if MultiTracer() != Nop {
		t.Fatal("empty multi tracer should collapse to Nop")
	}
	if MultiTracer(a) != Tracer(a) {
		t.Fatal("single multi tracer should collapse to its element")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if o := FromContext(context.Background()); o.Enabled() {
		t.Fatal("background context must carry no obs")
	}
	if FromContext(context.Background()).Tracer() != Nop {
		t.Fatal("zero Obs tracer must be Nop")
	}
	reg := NewRegistry()
	col := NewCollector()
	ctx := NewContext(context.Background(), Obs{Metrics: reg, Trace: col})
	o := FromContext(ctx)
	if o.Metrics != reg || o.Tracer() != Tracer(col) {
		t.Fatal("obs did not round-trip through context")
	}
	// Disabled Obs must not allocate a context value.
	if NewContext(context.Background(), Obs{}) != context.Background() {
		t.Fatal("empty Obs should return the original context")
	}
}
