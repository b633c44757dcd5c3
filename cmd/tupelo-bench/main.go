// Command tupelo-bench regenerates the evaluation of "Data Mapping as
// Search" (EDBT 2006, §5): every figure of the paper's three experiments
// plus the scaling-constant calibration table.
//
//	tupelo-bench -exp 1          # Figs. 5 & 6 (synthetic schema matching)
//	tupelo-bench -exp 2          # Figs. 7 & 8 (BAMM deep-web matching)
//	tupelo-bench -exp 3          # Fig. 9      (complex semantic mapping)
//	tupelo-bench -exp calibrate  # scaling-constant table
//	tupelo-bench -exp all
//
// The performance measure is the number of states examined, as in the
// paper. Use -tsv for gnuplot-ready series output and -budget to bound
// each run (censored runs print as >=budget, mirroring the saturated
// curves in the paper's log-scale plots).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof-addr
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"tupelo/internal/experiments"
	"tupelo/internal/obs"
	"tupelo/internal/search"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: 1, 2, 3, calibrate, scaling, hybrid, portfolio, all")
	algoName := flag.String("algo", "", "restrict exp 1 to one algorithm ("+benchAlgoNames(" or ")+")")
	domain := flag.String("domain", "Inventory", "exp 3 domain: Inventory or RealEstateII")
	budget := flag.Int("budget", 50000, "state budget per run")
	maxMem := flag.Uint64("max-mem", 0, "heap budget per run in bytes (0 = none); aborted runs count as censored")
	bestEffort := flag.Bool("best-effort", false, "budget-aborted runs report actual states examined (censored) instead of failing")
	retries := flag.Int("retries", 0, "portfolio experiment: restart budget for panicked or failed members")
	seed := flag.Int64("seed", 2006, "workload generator seed")
	sample := flag.Int("sample", 1, "exp 2: map every n-th sibling schema only")
	ks := flag.String("ks", "", "calibrate: comma-separated candidate scaling constants (default 1..30)")
	tsv := flag.Bool("tsv", false, "emit raw measurements as TSV instead of tables")
	verbose := flag.Bool("v", false, "print per-run progress to stderr")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot (counters, gauges, timers) to FILE when done")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP at HOST:PORT (/metrics; ?format=json) while running")
	benchOut := flag.String("bench-out", "", "write a machine-readable benchmark report (schema "+experiments.BenchSchema+") to FILE when done")
	benchHistory := flag.String("bench-history", "", "append a one-line "+experiments.BenchSchema+" summary of this run to FILE (JSONL trajectory); with -check-bench, compare the report against the best prior entry instead")
	checkBench := flag.String("check-bench", "", "validate FILE as a benchmark report and exit (used by CI)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof at HOST:PORT (/debug/pprof/) while running")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memprofile := flag.String("memprofile", "", "write a heap profile to FILE when done")
	flag.Parse()

	if *checkBench != "" {
		data, err := os.ReadFile(*checkBench)
		var report *experiments.BenchReport
		if err == nil {
			report, err = experiments.ParseBenchReport(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s report\n", *checkBench, experiments.BenchSchema)
		if *benchHistory != "" {
			hist, herr := os.ReadFile(*benchHistory)
			if herr != nil {
				fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", herr)
				os.Exit(1)
			}
			entries, herr := experiments.ParseHistory(hist)
			if herr != nil {
				fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", herr)
				os.Exit(1)
			}
			fmt.Println(experiments.RegressionReport(report.Summary(), entries))
		}
		return
	}

	cfg := experiments.Config{
		Budget:       *budget,
		Seed:         *seed,
		MaxHeapBytes: *maxMem,
		BestEffort:   *bestEffort,
		Retries:      *retries,
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	if *metricsOut != "" || *metricsAddr != "" || *benchOut != "" || *benchHistory != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	var (
		collectMu sync.Mutex
		collected []experiments.Measurement
	)
	if *benchOut != "" || *benchHistory != "" {
		cfg.Collect = func(m experiments.Measurement) {
			collectMu.Lock()
			collected = append(collected, m)
			collectMu.Unlock()
		}
	}
	if *metricsAddr != "" {
		ln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "tupelo-bench: metrics-addr: %v\n", lerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tupelo-bench: serving metrics on http://%s/metrics\n", ln.Addr())
		mux := http.NewServeMux()
		mux.Handle("/metrics", cfg.Metrics.Handler())
		go func() { _ = http.Serve(ln, mux) }()
	}
	if *pprofAddr != "" {
		ln, lerr := net.Listen("tcp", *pprofAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "tupelo-bench: pprof-addr: %v\n", lerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tupelo-bench: serving pprof on http://%s/debug/pprof/\n", ln.Addr())
		// The blank net/http/pprof import registers its handlers on the
		// default mux, kept separate from the metrics mux above.
		go func() { _ = http.Serve(ln, http.DefaultServeMux) }()
	}
	if *cpuprofile != "" {
		f, perr := os.Create(*cpuprofile)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "tupelo-bench: cpuprofile: %v\n", perr)
			os.Exit(1)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			fmt.Fprintf(os.Stderr, "tupelo-bench: cpuprofile: %v\n", perr)
			os.Exit(1)
		}
		// Stopped explicitly after the experiments: os.Exit on the error
		// paths below would skip a defer.
	}

	var err error
	switch *exp {
	case "1":
		err = runExp1(*algoName, cfg, *tsv, os.Stdout)
	case "2":
		err = runExp2(cfg, *sample, *tsv, os.Stdout)
	case "3":
		err = runExp3(*domain, cfg, *tsv, os.Stdout)
	case "calibrate":
		err = runCalibrate(*ks, cfg, os.Stdout)
	case "scaling":
		err = runScaling(cfg, os.Stdout)
	case "hybrid":
		err = runHybrid(cfg, os.Stdout)
	case "portfolio":
		err = runPortfolio(cfg, *sample, os.Stdout)
	case "all":
		for _, step := range []func() error{
			func() error { return runExp1(*algoName, cfg, *tsv, os.Stdout) },
			func() error { return runExp2(cfg, *sample, *tsv, os.Stdout) },
			func() error { return runExp3(*domain, cfg, *tsv, os.Stdout) },
			func() error { return runCalibrate(*ks, cfg, os.Stdout) },
			func() error { return runScaling(cfg, os.Stdout) },
			func() error { return runHybrid(cfg, os.Stdout) },
			func() error { return runPortfolio(cfg, 0, os.Stdout) },
		} {
			if err = step(); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if werr := writeHeapProfile(*memprofile); werr != nil {
			fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", werr)
			os.Exit(1)
		}
	}
	// Written even after a failed experiment so partial counters (runs
	// completed before the failure, abort causes) are not lost.
	if *metricsOut != "" {
		if werr := writeMetricsFile(*metricsOut, cfg.Metrics); werr != nil {
			fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", werr)
			os.Exit(1)
		}
	}
	if *benchOut != "" || *benchHistory != "" {
		collectMu.Lock()
		ms := collected
		collectMu.Unlock()
		r := experiments.NewBenchReport(*exp, cfg, ms)
		r.AttachMetrics(cfg.Metrics)
		if *benchOut != "" {
			if werr := writeBenchFile(*benchOut, r); werr != nil {
				fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", werr)
				os.Exit(1)
			}
		}
		if *benchHistory != "" {
			if werr := experiments.AppendHistory(*benchHistory, r.Summary()); werr != nil {
				fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", werr)
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tupelo-bench: %v\n", err)
		os.Exit(1)
	}
}

// writeBenchFile writes the machine-readable benchmark report.
func writeBenchFile(path string, r *experiments.BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHeapProfile forces a GC (so the profile reflects live objects, as
// the runtime/pprof docs recommend) and writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetricsFile dumps the registry's JSON snapshot to path.
func writeMetricsFile(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchAlgoNames joins the CLI names of the experiment algorithms with sep;
// flag help and the algos() error are both generated from it, so neither
// can drift from what the experiments actually run.
func benchAlgoNames(sep string) string {
	names := make([]string, 0, 2)
	for _, a := range experiments.BothAlgorithms() {
		names = append(names, a.CLIName())
	}
	return strings.Join(names, sep)
}

func algos(name string) ([]search.Algorithm, error) {
	if name == "" {
		return experiments.BothAlgorithms(), nil
	}
	for _, a := range experiments.BothAlgorithms() {
		if a.CLIName() == strings.ToLower(name) {
			return []search.Algorithm{a}, nil
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q (valid: %s)", name, benchAlgoNames(", "))
}

func runExp1(algoName string, cfg experiments.Config, tsv bool, w io.Writer) error {
	as, err := algos(algoName)
	if err != nil {
		return err
	}
	for _, algo := range as {
		fig := "Fig. 5"
		if algo == search.RBFS {
			fig = "Fig. 6"
		}
		fmt.Fprintf(w, "== Experiment 1 (%s): synthetic schema matching, %s ==\n", fig, algo)
		ms, err := experiments.RunExp1(experiments.DefaultExp1Options(algo), cfg)
		if err != nil {
			return err
		}
		if tsv {
			if err := experiments.WriteSeriesTSV(w, ms); err != nil {
				return err
			}
			continue
		}
		if err := experiments.WriteSeriesTable(w, ms, algo); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runExp2(cfg experiments.Config, sample int, tsv bool, w io.Writer) error {
	fmt.Fprintf(w, "== Experiment 2 (Figs. 7–8): BAMM deep-web schema matching ==\n")
	ms, err := experiments.RunExp2(experiments.Exp2Options{SampleEvery: sample}, cfg)
	if err != nil {
		return err
	}
	if tsv {
		return experiments.WriteSeriesTSV(w, ms)
	}
	byDomain := experiments.AverageByDomain(ms)
	for _, algo := range experiments.BothAlgorithms() {
		fmt.Fprintf(w, "-- Fig. 7, %s: average states examined per domain --\n", algo)
		if err := experiments.WriteExp2Table(w, byDomain, algo); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "-- Fig. 8: average states examined across all domains --")
	if err := experiments.WriteExp2Overall(w, experiments.AverageOverall(ms)); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func runExp3(domain string, cfg experiments.Config, tsv bool, w io.Writer) error {
	fmt.Fprintf(w, "== Experiment 3 (Fig. 9): complex semantic mapping, %s ==\n", domain)
	opts := experiments.DefaultExp3Options()
	opts.Domain = domain
	ms, err := experiments.RunExp3(opts, cfg)
	if err != nil {
		return err
	}
	if tsv {
		return experiments.WriteSeriesTSV(w, ms)
	}
	for _, algo := range experiments.BothAlgorithms() {
		sub := "(a)"
		if algo == search.RBFS {
			sub = "(b)"
		}
		fmt.Fprintf(w, "-- Fig. 9%s, %s: states examined vs number of complex functions --\n", sub, algo)
		if err := experiments.WriteSeriesTable(w, ms, algo); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runScaling(cfg experiments.Config, w io.Writer) error {
	fmt.Fprintln(w, "== Extension: instance-size scaling (branching ∝ |s|+|t|, §2.3) ==")
	rows, err := experiments.RunScaling(experiments.ScalingOptions{}, cfg)
	if err != nil {
		return err
	}
	if err := experiments.WriteScalingTable(w, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func runHybrid(cfg experiments.Config, w io.Writer) error {
	fmt.Fprintln(w, "== Extension: content+structure heuristics (§7 open question) ==")
	rows, err := experiments.RunHeuristicComparison(nil, cfg)
	if err != nil {
		return err
	}
	if err := experiments.WriteComparisonTable(w, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func runPortfolio(cfg experiments.Config, sample int, w io.Writer) error {
	fmt.Fprintln(w, "== Extension: portfolio race vs best sequential configuration (BAMM tasks) ==")
	rows, err := experiments.RunPortfolio(experiments.PortfolioOptions{SampleEvery: sample}, cfg)
	if err != nil {
		return err
	}
	if err := experiments.WritePortfolioTable(w, rows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func runCalibrate(ks string, cfg experiments.Config, w io.Writer) error {
	fmt.Fprintln(w, "== Calibration (§5 setup): scaling constants k ==")
	opts := experiments.CalibrateOptions{}
	if ks != "" {
		for _, part := range strings.Split(ks, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("-ks: %v", err)
			}
			opts.Ks = append(opts.Ks, k)
		}
	}
	rs, err := experiments.RunCalibrate(opts, cfg)
	if err != nil {
		return err
	}
	if err := experiments.WriteCalibrationTable(w, rs); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}
