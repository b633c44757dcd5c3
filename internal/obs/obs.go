// Package obs is the observability substrate of the mapper: a lightweight,
// allocation-conscious metrics registry (counters, gauges, timers) plus a
// structured Tracer for span-like search events.
//
// The paper's only performance instrument is the states-examined count;
// everything the engine has grown since — memoized estimates and moves,
// portfolio races, the serving daemon — is invisible without a second
// layer of measurement. This package provides that layer without pulling
// in any dependency: instruments are plain atomics, the registry is a
// string-keyed map behind an RWMutex, and exposition is expvar-style JSON or
// Prometheus text, both writable to an io.Writer or served over HTTP.
//
// Instruments are nil-tolerant throughout: methods on a nil *Registry,
// *Counter, *Gauge, or *Timer are no-ops, so instrumented code paths read
// unconditionally —
//
//	c := reg.Counter("search.examined") // c == nil when reg == nil
//	c.Inc()                             // safe either way
//
// — and a run without a registry pays only a nil check per event.
//
// Metric names follow a dotted hierarchy with optional Prometheus-style
// labels, e.g. "search.examined{algo=\"RBFS\"}". The JSON exposition uses
// the full name as the key; the Prometheus exposition rewrites the dotted
// base to tupelo_search_examined and keeps the label block verbatim.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that may go up and down. The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates durations: observation count, total, and maximum. The
// zero value is ready to use; a nil *Timer is a no-op.
type Timer struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.sum.Add(int64(d))
	for {
		cur := t.max.Load()
		if int64(d) <= cur || t.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Time runs f and observes its duration.
func (t *Timer) Time(f func()) {
	start := time.Now()
	f()
	t.Observe(time.Since(start))
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.sum.Load())
}

// MaxValue returns the largest single observation.
func (t *Timer) MaxValue() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.max.Load())
}

// Registry is a race-safe collection of named instruments. Lookups are
// get-or-create and return stable pointers, so hot paths resolve their
// instruments once and then touch only atomics. A nil *Registry hands out
// nil instruments, which are themselves no-ops.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the timer registered under name, creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// TimerSnapshot is the exported state of one Timer.
type TimerSnapshot struct {
	Count   int64         `json:"count"`
	TotalNS int64         `json:"total_ns"`
	MaxNS   int64         `json:"max_ns"`
	Total   time.Duration `json:"-"`
	Max     time.Duration `json:"-"`
}

// Snapshot is a point-in-time copy of every instrument in a registry; it
// marshals to the expvar-style JSON exposition.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Timers     map[string]TimerSnapshot     `json:"timers"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every instrument. A nil registry
// yields an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Timers:     make(map[string]TimerSnapshot),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		s.Timers[name] = TimerSnapshot{
			Count:   t.Count(),
			TotalNS: int64(t.Total()),
			MaxNS:   int64(t.MaxValue()),
			Total:   t.Total(),
			Max:     t.MaxValue(),
		}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the expvar-style JSON exposition: one object with
// "counters", "gauges", and "timers" keys, map keys sorted (encoding/json
// sorts map keys), values as int64.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promHelp documents the metric families the engine registers, keyed by the
// emitted (tupelo_-prefixed) family name. WritePrometheus writes a "# HELP"
// line for a family found here; unknown families (user-registered metrics)
// get only their "# TYPE" line, which the exposition format permits.
var promHelp = map[string]string{
	"tupelo_search_examined":           "States examined (goal-tested) by the search, per algorithm.",
	"tupelo_search_generated":          "Successor states generated by expansions, per algorithm.",
	"tupelo_search_yields":             "Cooperative runtime.Gosched yields taken at the search loop's scheduling points.",
	"tupelo_search_runs":               "Search runs started, per algorithm.",
	"tupelo_search_aborts":             "Search runs aborted, per algorithm and cause (limit, deadline, memory, canceled, panic).",
	"tupelo_search_panics":             "Panics recovered inside search-owned goroutines, per origin.",
	"tupelo_search_goaltest_seconds":   "Latency of goal-containment tests.",
	"tupelo_search_expand_seconds":     "Latency of successor expansions.",
	"tupelo_core_succmemo_hits":        "Expansions answered from the successor memo without re-running operators.",
	"tupelo_core_succmemo_misses":      "Expansions that ran the operator pipeline.",
	"tupelo_core_ops_proposed":         "Candidate moves proposed, per operator.",
	"tupelo_core_ops_applied":          "Candidate moves successfully applied, per operator.",
	"tupelo_core_op_apply_seconds":     "Latency of candidate-operator applications, per operator (sampled on memo misses).",
	"tupelo_heuristic_cache_hits":      "Heuristic-cache hits, per cache.",
	"tupelo_heuristic_cache_misses":    "Heuristic-cache misses, per cache.",
	"tupelo_heuristic_cache_entries":   "Heuristic-cache resident entries, per cache.",
	"tupelo_heuristic_eval_seconds":    "Latency of heuristic evaluations (cache misses), per heuristic.",
	"tupelo_portfolio_member_duration": "Wall-clock duration of portfolio members, per member configuration.",
	"tupelo_portfolio_wins":            "Races won, per member configuration.",
	"tupelo_portfolio_retries":         "Member restarts after a panic or failure, per member configuration.",
	"tupelo_portfolio_partial":         "Best-effort partial results adopted after every member lost, per member configuration.",
	"tupelo_repo_entries":              "Committed mapping entries resident in the repository index.",
	"tupelo_repo_hits":                 "Repository lookups answered by a committed entry.",
	"tupelo_repo_misses":               "Repository lookups with no committed entry for the fingerprint pair.",
	"tupelo_repo_puts":                 "Entries committed to the repository (atomic temp+rename writes).",
	"tupelo_repo_quarantined":          "Corrupt or torn repository files moved to quarantine/ during recovery.",
	"tupelo_server_jobs_admitted":      "Jobs admitted past quota, breaker, and queue checks.",
	"tupelo_server_jobs_rejected":      "Jobs rejected at admission, per reason (queue-full, tenant-quota, breaker-open, draining, bad-request, abandoned).",
	"tupelo_server_jobs_completed":     "Jobs that ran to a response, per outcome (solved, partial).",
	"tupelo_server_jobs_failed":        "Jobs that ran and failed, per abort cause.",
	"tupelo_server_jobs_running":       "Jobs currently holding an execution slot.",
	"tupelo_server_queue_depth":        "Admitted jobs waiting for an execution slot.",
	"tupelo_server_job_duration":       "Wall-clock duration of job execution, queue wait excluded.",
	"tupelo_server_repo_hits":          "Job submissions answered from the mapping repository without a search.",
	"tupelo_server_repo_misses":        "Job submissions that required a fresh search.",
	"tupelo_server_repo_put_errors":    "Solved mappings that failed to commit to the repository.",
	"tupelo_server_breaker_opens":      "Per-tenant circuit-breaker opens after consecutive fatal verdicts, per tenant.",
	"tupelo_server_drains":             "Graceful drains started (SIGTERM/Shutdown).",
	"tupelo_server_drain_cancelled":    "In-flight jobs cancelled at the drain deadline (best-effort partials persisted).",
	"tupelo_server_forensics_dumps":    "Flight-recorder dumps persisted for failed jobs.",
	"tupelo_server_forensics_reports":  "Run reports persisted to the forensics directory.",
}

// helpFamily maps an emitted family name to its promHelp key: derived timer
// families (_count, _seconds_total, _max_seconds) share their base timer's
// entry.
func helpFamily(base string) string {
	for _, suffix := range [...]string{"_count", "_seconds_total", "_max_seconds"} {
		if trimmed, ok := strings.CutSuffix(base, suffix); ok {
			if _, known := promHelp[trimmed]; known {
				return trimmed
			}
		}
	}
	return base
}

// WritePrometheus writes the Prometheus text exposition format (version
// 0.0.4): one "# HELP" (for the families the engine documents) and one
// "# TYPE" line per metric family followed by its samples, dotted base
// names rewritten to a tupelo_-prefixed underscore form with any
// {label="value"} block preserved. Labeled series of one family sort
// adjacently (labels follow the base name lexically), so emitting the
// header on each base-name change yields exactly one per family. Timers
// emit _count and _seconds_total samples as the counter pair of a
// Prometheus summary, plus a _max_seconds gauge for the largest single
// observation. Histograms emit the standard _bucket{le=...}/_sum/_count
// triple with cumulative bucket counts in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	typeHeader := func(last *string, base, kind string) {
		if base != *last {
			if help, ok := promHelp[helpFamily(base)]; ok {
				fmt.Fprintf(&b, "# HELP %s %s\n", base, help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, kind)
			*last = base
		}
	}
	var last string
	for _, name := range sortedKeys(s.Counters) {
		base, labels := promName(name)
		typeHeader(&last, base, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", base, labels, s.Counters[name])
	}
	last = ""
	for _, name := range sortedKeys(s.Gauges) {
		base, labels := promName(name)
		typeHeader(&last, base, "gauge")
		fmt.Fprintf(&b, "%s%s %d\n", base, labels, s.Gauges[name])
	}
	timerNames := make([]string, 0, len(s.Timers))
	for name := range s.Timers {
		timerNames = append(timerNames, name)
	}
	sort.Strings(timerNames)
	// Separate passes keep each derived family's samples contiguous under
	// its own header, as the format requires.
	last = ""
	for _, name := range timerNames {
		base, labels := promName(name)
		typeHeader(&last, base+"_count", "counter")
		fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, s.Timers[name].Count)
	}
	last = ""
	for _, name := range timerNames {
		base, labels := promName(name)
		typeHeader(&last, base+"_seconds_total", "counter")
		fmt.Fprintf(&b, "%s_seconds_total%s %g\n", base, labels, time.Duration(s.Timers[name].TotalNS).Seconds())
	}
	last = ""
	for _, name := range timerNames {
		base, labels := promName(name)
		typeHeader(&last, base+"_max_seconds", "gauge")
		fmt.Fprintf(&b, "%s_max_seconds%s %g\n", base, labels, time.Duration(s.Timers[name].MaxNS).Seconds())
	}
	histNames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	last = ""
	for _, name := range histNames {
		base, labels := promName(name)
		typeHeader(&last, base, "histogram")
		h := s.Histograms[name]
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base, withLE(labels, fmt.Sprintf("%g", boundSeconds(bk.UpperNS))), bk.Count)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", base, withLE(labels, "+Inf"), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %g\n", base, labels, time.Duration(h.TotalNS).Seconds())
		fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLE splices an le="..." pair into an existing {label="value"} block
// (or synthesizes the block when there are no other labels), keeping le
// last as the Prometheus convention expects.
func withLE(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("%s,le=%q}", labels[:len(labels)-1], le)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName splits a metric name into its Prometheus base name and label
// block: "search.examined{algo=\"RBFS\"}" becomes
// ("tupelo_search_examined", "{algo=\"RBFS\"}"). Characters outside
// [a-zA-Z0-9_] in the base collapse to underscores.
func promName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name, labels = name[:i], name[i:]
	}
	var b strings.Builder
	b.Grow(len("tupelo_") + len(name))
	b.WriteString("tupelo_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), labels
}

// Handler serves the registry over HTTP: Prometheus text format by default
// (suitable for a scrape endpoint), JSON with ?format=json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WritePrometheus(w)
	})
}

// Name renders a metric name with label pairs: Name("search.examined",
// "algo", "RBFS") is `search.examined{algo="RBFS"}`. Pairs must come in
// key/value order; an odd trailing key is ignored. Values are quoted by
// strconv.Quote, exactly as fmt's %q quotes a string, without going through
// fmt: every search run resolves several names.
func Name(base string, pairs ...string) string {
	if len(pairs) < 2 {
		return base
	}
	var stackBuf [128]byte // names fit; the result string is the one allocation
	buf := append(stackBuf[:0], base...)
	buf = append(buf, '{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, pairs[i]...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, pairs[i+1])
	}
	buf = append(buf, '}')
	return string(buf)
}
