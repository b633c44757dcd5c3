// Command benchmark is the repository benchmark. It runs one named workload
// through the public APIs of internal/core, internal/server and
// internal/repo, certifies every mapping it gets back, and prints the
// workload's metrics:
//
//	bash benchmark/run.sh --workload exp1-sweep --seed 2006 --seconds 10 --trace 0
//
// Workloads (README.md records why each was chosen):
//
//	exp1-sweep   the paper's Exp1 grid (Figs. 5-6), as tupelo-bench -exp 1 runs it
//	restructure  Fig. 1 Flights pairs at several sizes plus Exp3 Inventory λ tasks
//	serve-mix    tupelo-serve over loopback: cold BAMM solves and repository hits
//
// A run does one untimed warm-up pass, then repeats set-up plus one timed
// pass until --seconds have elapsed, and reports medians over the passes.
// With --trace 0 every registry and tracer the benchmark controls is off and
// the end-to-end metrics are printed; with --trace 1 untraced and traced
// passes alternate, the traced ones with the instruments attached, and the
// per-layer ledger is printed. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any operation failed or any mapping failed certification.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports for every workload; they
// are measured with every registry and tracer the benchmark controls off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"solved_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// perLayer are the metrics a --trace 1 run reports for every workload. A
// layer a workload does not exercise reads 0; only ratios and counts can,
// since every time is measured on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ledger.wall_s", "s"},
		{"core.setup_s", "s"},
		{"heuristic.outside_expand_s", "s"},
		{"core.expand_s", "s"},
		{"fira.apply_s", "s"},
		{"heuristic.prewarm_s", "s"},
		{"core.movegen_self_s", "s"},
		{"relation.goaltest_s", "s"},
		{"search.self_s", "s"},
		{"ledger.residual_frac", "ratio"},
		{"search.examined", "count"},
		{"search.generated", "count"},
		{"core.succmemo_hit_frac", "ratio"},
		{"core.ops_applied", "count"},
		{"core.ops_applied_frac", "ratio"},
		{"core.portfolio_wasted_frac", "ratio"},
		{"heuristic.eval_s", "s"},
		{"heuristic.evals", "count"},
		{"heuristic.eval_ns_mean", "ns"},
		{"heuristic.cache_hit_frac", "ratio"},
		{"relation.goaltest_ns_mean", "ns"},
	}
	for _, op := range firaOps {
		defs = append(defs, metricDef{"fira.apply_frac." + op, "ratio"})
	}
	return append(defs,
		metricDef{"critio.parse_us", "us"},
		metricDef{"repo.put_ms", "ms"},
		metricDef{"repo.open_s", "s"},
		metricDef{"server.outside_job_frac", "ratio"},
		metricDef{"server.rejected_frac", "ratio"},
		metricDef{"server.repo_hit_frac", "ratio"},
		metricDef{"runtime.alloc_bytes_per_state", "B/state"},
		metricDef{"runtime.allocs_per_state", "1/state"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_s", "s"},
		metricDef{"obs.overhead_frac", "ratio"},
	)
}()

// workload is one benchmark workload. setup is timed as setup_s; pass is
// the timed phase; teardown is untimed.
type workload interface {
	setup(traced bool) error
	pass(traced bool) (*passResult, error)
	teardown() error
}

// passResult is what one timed pass measured.
type passResult struct {
	// wall is the wall time of the timed phase.
	wall time.Duration
	// busy is the time the states_per_s denominator uses: the summed
	// duration of the core.Discover calls, or wall on serve-mix.
	busy time.Duration
	// states is the paper's measure: states examined, censored runs at the
	// budget (on serve-mix, the winners' states of the cold jobs).
	states int
	// searched is the runtime metrics' per-state denominator: states on
	// the discovery workloads; on serve-mix every state any portfolio member
	// examined, losers included (the server's registry counts them).
	searched int
	// discoveries counts the discoveries attempted, solved the complete
	// mappings among them that passed certification.
	discoveries, solved int
	// attempted counts every operation (discovery or request); failures
	// describes each that erred, failed certification or got a non-2xx.
	attempted int
	failures  []string
	// lat holds per-operation latencies by class: "discovery" on the
	// discovery workloads, "cold" and "hit" on serve-mix.
	lat map[string][]time.Duration
	// classes counts serve-mix request outcomes by class.
	classes map[string]*classCount
	// rt is the allocation and GC activity of the timed phase.
	rt runtimeDelta
	// peakRSS is the process's peak resident memory over set-up and pass,
	// in MB.
	peakRSS float64
	// layers holds the per-layer values of a traced pass.
	layers map[string]float64
	// fingerprint summarizes a discovery pass's deterministic outcome
	// (states per task); every pass of a run must agree on it.
	fingerprint string
}

// classCount is the outcome tally of one serve-mix request class.
type classCount struct {
	attempted, succeeded, rejected, failed int
}

// runSummary collects every pass of a run.
type runSummary struct {
	setups   []time.Duration
	plain    []*passResult
	traced   []*passResult
	failures []string
}

func (r *runSummary) attempted() int {
	n := 0
	for _, p := range append(append([]*passResult(nil), r.plain...), r.traced...) {
		n += p.attempted
	}
	return n
}

func main() {
	name := flag.String("workload", "", "workload: exp1-sweep, restructure or serve-mix")
	seed := flag.Int64("seed", 2006, "seed for the generated inputs (BAMM schemas and the serve-mix request stream)")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer ledger from traced passes")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed, ".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	sum, err := measure(w, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 1 {
		metrics, defs = layerMetrics(sum), perLayer
		printLedger(os.Stdout, *name, sum, metrics)
	} else {
		metrics, defs = endToEndMetrics(sum), endToEnd
		printEndToEnd(os.Stdout, *name, sum, metrics)
	}
	for _, f := range sum.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   len(sum.failures) == 0,
		Attempted: sum.attempted(),
		Failed:    len(sum.failures),
		Metrics:   make(map[string]map[string]any, len(defs)),
	}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// newWorkload builds the named workload. On-disk state goes under root,
// .bench_build in the checkout the benchmark runs from.
func newWorkload(name string, seed int64, root string) (workload, error) {
	switch name {
	case "exp1-sweep":
		return newDiscoveryWorkload(exp1Tasks, root), nil
	case "restructure":
		return newDiscoveryWorkload(restructureTasks, root), nil
	case "serve-mix":
		return newServeWorkload(seed, root)
	default:
		return nil, fmt.Errorf("unknown workload %q (want exp1-sweep, restructure or serve-mix)", name)
	}
}

// measure runs one untimed warm-up pass, so that timed passes run with the
// run-wide relation.Intern dictionary warm, and then set-up plus one pass
// until budget has elapsed. Traced runs alternate untraced and traced
// passes; at least three (untraced) or two of each (traced) are made.
// Before each set-up the heap is collected and returned to the OS and the
// peak-RSS watermark reset, so every pass starts from the same memory state
// and reports its own peak.
func measure(w workload, budget time.Duration, traced bool) (*runSummary, error) {
	one := func(tracedPass bool) (*passResult, time.Duration, error) {
		debug.FreeOSMemory()
		resetPeakRSS()
		start := time.Now()
		if err := w.setup(tracedPass); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		setup := time.Since(start)
		p, err := w.pass(tracedPass)
		if err == nil {
			p.peakRSS = peakRSSMB()
		}
		if terr := w.teardown(); err == nil && terr != nil {
			err = fmt.Errorf("teardown: %w", terr)
		}
		return p, setup, err
	}
	if _, _, err := one(false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	sum := &runSummary{}
	var fingerprint string
	start := time.Now()
	for i := 0; ; i++ {
		tracedPass := traced && i%2 == 1
		p, setup, err := one(tracedPass)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			fingerprint = p.fingerprint
		} else if p.fingerprint != fingerprint {
			sum.failures = append(sum.failures, fmt.Sprintf("pass %d examined different states than pass 0 (nondeterministic search)", i))
		}
		sum.failures = append(sum.failures, p.failures...)
		lat := pooled([]*passResult{p}, "discovery", "cold", "hit")
		fmt.Fprintf(os.Stderr, "pass %d traced=%v setup=%.6fs wall=%.6fs busy=%.6fs states=%d p50=%.4fms p90=%.4fms rss=%.1fMB\n",
			i, tracedPass, setup.Seconds(), p.wall.Seconds(), p.busy.Seconds(), p.states,
			percentile(lat, 0.5), percentile(lat, 0.9), p.peakRSS)
		if tracedPass {
			sum.traced = append(sum.traced, p)
		} else {
			sum.setups = append(sum.setups, setup)
			sum.plain = append(sum.plain, p)
		}
		enough := len(sum.plain) >= 3
		if traced {
			enough = len(sum.plain) >= 2 && len(sum.traced) >= 2
		}
		if enough && time.Since(start) >= budget {
			return sum, nil
		}
	}
}

// medianOf returns the median over passes of f.
func medianOf(ps []*passResult, f func(*passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// pooled concatenates the latencies of the given classes over passes.
func pooled(ps []*passResult, classes ...string) []time.Duration {
	var out []time.Duration
	for _, p := range ps {
		for _, c := range classes {
			out = append(out, p.lat[c]...)
		}
	}
	return out
}

// endToEndMetrics derives the end-to-end metrics from the untraced passes:
// medians over passes, and latency percentiles over the pooled operations.
func endToEndMetrics(sum *runSummary) map[string]float64 {
	ps := sum.plain
	setups := make([]float64, len(sum.setups))
	for i, d := range sum.setups {
		setups[i] = d.Seconds()
	}
	all := pooled(ps, "discovery", "cold", "hit")
	m := map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          medianOf(ps, func(p *passResult) float64 { return p.wall.Seconds() }),
		"states_per_s":    medianOf(ps, func(p *passResult) float64 { return ratio(float64(p.states), p.busy.Seconds()) }),
		"states_examined": medianOf(ps, func(p *passResult) float64 { return float64(p.states) }),
		"solved_frac":     medianOf(ps, func(p *passResult) float64 { return ratio(float64(p.solved), float64(p.discoveries)) }),
		"failed_frac":     medianOf(ps, func(p *passResult) float64 { return ratio(float64(len(p.failures)), float64(p.attempted)) }),
		"peak_rss_mb":     medianOf(ps, func(p *passResult) float64 { return p.peakRSS }),
		"p50_ms":          percentile(all, 0.50),
		"p90_ms":          percentile(all, 0.90),
		"ops_per_s":       medianOf(ps, func(p *passResult) float64 { return ratio(float64(p.attempted), p.wall.Seconds()) }),
	}
	for _, c := range []string{"cold", "hit"} {
		lat := pooled(ps, c)
		if len(lat) == 0 {
			continue
		}
		m[c+"_p50_ms"] = percentile(lat, 0.50)
		m[c+"_p90_ms"] = percentile(lat, 0.90)
	}
	return m
}

// layerMetrics derives the per-layer metrics: the ledger of the traced
// pass with the median traced wall (so its parts still sum to its wall),
// runtime deltas as medians over the untraced passes, and the cost of
// observing as the ratio of median traced to median untraced discovery
// wall time.
func layerMetrics(sum *runSummary) map[string]float64 {
	tr := slices.Clone(sum.traced)
	slices.SortFunc(tr, func(a, b *passResult) int {
		return cmp.Compare(a.layers["ledger.wall_s"], b.layers["ledger.wall_s"])
	})
	mid := tr[(len(tr)-1)/2]
	m := make(map[string]float64, len(mid.layers)+8)
	for k, v := range mid.layers {
		m[k] = v
	}
	ps := sum.plain
	perState := func(f func(runtimeDelta) float64) float64 {
		return medianOf(ps, func(p *passResult) float64 { return ratio(f(p.rt), float64(p.searched)) })
	}
	m["runtime.alloc_bytes_per_state"] = perState(func(d runtimeDelta) float64 { return d.allocBytes })
	m["runtime.allocs_per_state"] = perState(func(d runtimeDelta) float64 { return d.allocs })
	m["runtime.gc_cycles"] = medianOf(ps, func(p *passResult) float64 { return p.rt.gcCycles })
	m["runtime.gc_pause_s"] = medianOf(ps, func(p *passResult) float64 { return p.rt.gcPause.Seconds() })
	tracedBusy := medianOf(sum.traced, func(p *passResult) float64 { return p.busy.Seconds() })
	plainBusy := medianOf(ps, func(p *passResult) float64 { return p.busy.Seconds() })
	m["obs.overhead_frac"] = ratio(tracedBusy, plainBusy) - 1
	return m
}

// printEndToEnd writes the human-readable end-to-end table: every
// end-to-end metric with its unit, and each percentile with its sample
// count.
func printEndToEnd(w io.Writer, name string, sum *runSummary, m map[string]float64) {
	ps := sum.plain
	fmt.Fprintf(w, "workload %s: %d untraced passes (median reported), set-up measured %d times\n", name, len(ps), len(sum.setups))
	row := func(metric, unit string, v float64, note string) {
		fmt.Fprintf(w, "  %-16s %14.6g %-9s %s\n", metric, v, unit, note)
	}
	row("setup_s", "s", m["setup_s"], "")
	row("wall_s", "s", m["wall_s"], "one pass")
	row("states_per_s", "states/s", m["states_per_s"], "")
	row("states_examined", "count", m["states_examined"], "per pass")
	row("solved_frac", "ratio", m["solved_frac"], "")
	row("failed_frac", "ratio", m["failed_frac"], "")
	row("peak_rss_mb", "MB", m["peak_rss_mb"], "")
	all := len(pooled(ps, "discovery", "cold", "hit"))
	row("p50_ms", "ms", m["p50_ms"], fmt.Sprintf("n=%d operations", all))
	row("p90_ms", "ms", m["p90_ms"], fmt.Sprintf("n=%d operations", all))
	if ps[0].classes == nil {
		row("ops_per_s", "1/s", m["ops_per_s"], "discoveries per second")
		for _, metric := range []string{"req_per_s", "cold_p50_ms", "cold_p90_ms", "hit_p50_ms", "hit_p90_ms"} {
			fmt.Fprintf(w, "  %-16s %14s            (serve-mix only)\n", metric, "n/a")
		}
		return
	}
	row("req_per_s", "req/s", m["ops_per_s"], "")
	for _, c := range []string{"cold", "hit"} {
		n := len(pooled(ps, c))
		row(c+"_p50_ms", "ms", m[c+"_p50_ms"], fmt.Sprintf("n=%d", n))
		row(c+"_p90_ms", "ms", m[c+"_p90_ms"], fmt.Sprintf("n=%d", n))
	}
	printClasses(w, ps)
}

// printClasses writes the serve-mix request outcome counts per class,
// summed over the passes.
func printClasses(w io.Writer, ps []*passResult) {
	for _, c := range []string{"cold", "hit"} {
		var t classCount
		for _, p := range ps {
			if cc := p.classes[c]; cc != nil {
				t.attempted += cc.attempted
				t.succeeded += cc.succeeded
				t.rejected += cc.rejected
				t.failed += cc.failed
			}
		}
		fmt.Fprintf(w, "  requests %-4s attempted=%d succeeded=%d rejected=%d failed=%d\n",
			c, t.attempted, t.succeeded, t.rejected, t.failed)
	}
}

// printLedger writes the per-layer ledger of the median traced pass, whose
// parts plus residual equal its discovery wall time, then every per-layer
// metric.
func printLedger(w io.Writer, name string, sum *runSummary, m map[string]float64) {
	fmt.Fprintf(w, "workload %s: %d traced + %d untraced passes; ledger of the median traced pass\n",
		name, len(sum.traced), len(sum.plain))
	wall := m["ledger.wall_s"]
	part := func(indent, metric string) {
		fmt.Fprintf(w, "  %s%-28s %12.6f s  %6.2f%%\n", indent, metric, m[metric], 100*ratio(m[metric], wall))
	}
	part("", "core.setup_s")
	part("  ", "heuristic.outside_expand_s")
	part("", "core.expand_s")
	part("  ", "fira.apply_s")
	for _, op := range firaOps {
		if m["fira.apply_s."+op] > 0 {
			part("    ", "fira.apply_s."+op)
		}
	}
	part("  ", "heuristic.prewarm_s")
	part("  ", "core.movegen_self_s")
	part("", "relation.goaltest_s")
	part("", "search.self_s")
	part("", "ledger.residual_s")
	fmt.Fprintf(w, "  %-30s %12.6f s  (ledger.residual_frac %.3g)\n", "= ledger.wall_s", wall, m["ledger.residual_frac"])
	for _, k := range []string{"server.job_ms_mean", "server.outside_job_ms", "cold_mean_ms"} {
		if v, ok := m[k]; ok {
			fmt.Fprintf(w, "  %-30s %12.6f ms\n", k, v)
		}
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	if sum.traced[0].classes != nil {
		printClasses(w, sum.traced)
	}
}
