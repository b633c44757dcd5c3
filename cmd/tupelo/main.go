// Command tupelo discovers and applies data mapping expressions between
// relational schemas from example (critical) instances, implementing the
// TUPELO system of "Data Mapping as Search" (EDBT 2006).
//
// Usage:
//
//	tupelo discover -source src.txt -target tgt.txt [flags]
//	tupelo apply    -mapping map.txt -input db.txt [flags]
//	tupelo show     -input db.txt [-tnf]
//
// Critical instances use the text format of package critio: relation
// blocks plus optional "map f(In,...) -> Out [on Rel]" directives declaring
// complex semantic correspondences.
package main

import (
	"bytes"
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr: registers profiling handlers on the default mux
	"os"
	"strconv"
	"strings"
	"time"

	"tupelo"
	"tupelo/internal/search"
	"tupelo/internal/tnf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "discover":
		err = cmdDiscover(os.Args[2:])
	case "apply":
		err = cmdApply(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "sql":
		err = cmdSQL(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tupelo: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tupelo: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	// The -algo and -heuristic alternatives are generated from the parser's
	// own name lists so this text cannot drift from what is accepted.
	fmt.Fprintf(os.Stderr, `usage:
  tupelo discover -source src.txt -target tgt.txt [-algo %s]
                  [-heuristic %s]
                  [-k N] [-max-states N] [-timeout DUR] [-max-mem SIZE]
                  [-best-effort]
                  [-portfolio default|SPEC,SPEC,...] [-retries N]
                  [-simplify] [-pretty] [-stats]
                  [-trace-json FILE] [-report FILE] [-flight FILE]
                  [-metrics] [-metrics-addr HOST:PORT] [-pprof-addr HOST:PORT]
                  (a portfolio SPEC is algo/heuristic or algo/heuristic/K,
                   e.g. -portfolio rbfs/cosine,ida/h1,rbfs/levenshtein/15)
  tupelo apply    -mapping map.txt -input db.txt [-where PRED -on REL]
                  [-conform tgt.txt [-drop-absent]]
  tupelo show     -input db.txt [-tnf]
  tupelo sql      -mapping map.txt -sample src.txt [-prefix stage_]
`, strings.Join(tupelo.AlgorithmNames(), "|"), strings.Join(tupelo.HeuristicNames(), "|"))
}

// parsePortfolio reads a -portfolio spec: "default" for the built-in
// lineup, or comma-separated "algo/heuristic" or "algo/heuristic/K"
// members.
func parsePortfolio(spec string) ([]tupelo.PortfolioConfig, error) {
	if strings.EqualFold(spec, "default") {
		return tupelo.DefaultPortfolio(), nil
	}
	var configs []tupelo.PortfolioConfig
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), "/")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("portfolio member %q: want algo/heuristic or algo/heuristic/K", part)
		}
		algo, err := tupelo.ParseAlgorithm(fields[0])
		if err != nil {
			return nil, fmt.Errorf("portfolio member %q: %v", part, err)
		}
		heur, err := tupelo.ParseHeuristic(fields[1])
		if err != nil {
			return nil, fmt.Errorf("portfolio member %q: %v", part, err)
		}
		cfg := tupelo.PortfolioConfig{Algorithm: algo, Heuristic: heur}
		if len(fields) == 3 {
			k, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("portfolio member %q: bad k: %v", part, err)
			}
			cfg.K = k
		}
		configs = append(configs, cfg)
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("empty portfolio spec")
	}
	return configs, nil
}

func readInstanceFile(path string) (*tupelo.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tupelo.ReadInstance(f)
}

func cmdDiscover(args []string) error {
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	srcPath := fs.String("source", "", "source critical instance file")
	tgtPath := fs.String("target", "", "target critical instance file")
	algoName := fs.String("algo", "rbfs", "search algorithm ("+strings.Join(tupelo.AlgorithmNames(), ", ")+")")
	heurName := fs.String("heuristic", "cosine", "search heuristic ("+strings.Join(tupelo.HeuristicNames(), ", ")+")")
	k := fs.Float64("k", 0, "scaling constant (0 = paper default for algo/heuristic)")
	maxStates := fs.Int("max-states", 0, "state budget (0 = 1,000,000)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for discovery (0 = none)")
	maxMem := fs.String("max-mem", "", "heap budget for discovery, e.g. 64M or 2G (empty = none)")
	bestEffort := fs.Bool("best-effort", false, "on a budget/deadline abort, emit the closest partial mapping instead of failing")
	retries := fs.Int("retries", 0, "with -portfolio: restart budget for panicked or failed members")
	portfolio := fs.String("portfolio", "", `race configurations: "default" or "algo/heur[/k],..." (overrides -algo/-heuristic/-k)`)
	simplify := fs.Bool("simplify", false, "simplify the discovered expression")
	pretty := fs.Bool("pretty", false, "also print paper-style notation")
	stats := fs.Bool("stats", false, "print search statistics to stderr")
	traceJSON := fs.String("trace-json", "", "write the full structured event stream as JSON Lines to FILE (/dev/stderr for a live transcript)")
	reportPath := fs.String("report", "", "write a tupelo-report/v1 run report (JSON, with the performance profile) to FILE, even on an aborted run (render with tupelo-trace summary or chrome)")
	flightPath := fs.String("flight", "", "arm the flight recorder; its rings are dumped as tupelo-flight/v2 JSONL to FILE only when the run dies abnormally (panic, memory abort, deadline)")
	metrics := fs.Bool("metrics", false, "print a metrics snapshot (Prometheus text format) to stderr after the run")
	metricsAddr := fs.String("metrics-addr", "", "serve metrics over HTTP at HOST:PORT (/metrics; ?format=json) for the run's duration")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof at HOST:PORT (/debug/pprof/) for the run's duration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *srcPath == "" || *tgtPath == "" {
		return fmt.Errorf("discover: -source and -target are required")
	}
	src, err := readInstanceFile(*srcPath)
	if err != nil {
		return err
	}
	tgt, err := readInstanceFile(*tgtPath)
	if err != nil {
		return err
	}
	algo, err := tupelo.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	heur, err := tupelo.ParseHeuristic(*heurName)
	if err != nil {
		return err
	}
	heapBudget, err := parseByteSize(*maxMem)
	if err != nil {
		return fmt.Errorf("max-mem: %v", err)
	}
	opts := tupelo.Options{
		Algorithm: algo,
		Heuristic: heur,
		K:         *k,
		Limits: search.Limits{
			MaxStates:    *maxStates,
			MaxHeapBytes: heapBudget,
			BestEffort:   *bestEffort,
		},
		// Correspondences may be declared on either instance; the union
		// is available to the mapper.
		Correspondences: append(append([]tupelo.Correspondence(nil), src.Corrs...), tgt.Corrs...),
	}
	var tracers []tupelo.Tracer
	// Each requested artifact is finished after the run, even an aborted
	// one; one that fails to write is reported and fails the command once
	// the mapping is printed.
	type artifact struct {
		flag   string
		finish func() error
	}
	var artifacts []artifact
	if *traceJSON != "" {
		f, ferr := os.Create(*traceJSON)
		if ferr != nil {
			return fmt.Errorf("trace-json: %v", ferr)
		}
		defer f.Close() // for early returns; the artifact checks its Close
		jt := tupelo.NewJSONTracer(f)
		tracers = append(tracers, jt)
		artifacts = append(artifacts, artifact{"trace-json", func() error { return cmp.Or(jt.Err(), f.Close()) }})
	}
	var reportBuilder *tupelo.ReportBuilder
	if *reportPath != "" {
		reportBuilder = tupelo.NewReportBuilder()
		tracers = append(tracers, reportBuilder)
	}
	if len(tracers) > 0 {
		opts.Tracer = tupelo.MultiTracer(tracers...)
	}
	if *flightPath != "" {
		f, ferr := os.Create(*flightPath)
		if ferr != nil {
			return fmt.Errorf("flight: %v", ferr)
		}
		defer f.Close() // for early returns; the artifact checks its Close
		// The dump is flushed from inside the run, which drops its write
		// error; buffering it lets the artifact check the write.
		var dump bytes.Buffer
		fr := tupelo.NewFlightRecorder(0)
		fr.SetAutoDump(&dump)
		opts.Flight = fr
		artifacts = append(artifacts, artifact{"flight", func() error {
			_, err := f.Write(dump.Bytes())
			return cmp.Or(err, f.Close())
		}})
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			return err
		}
	}
	if *metrics || *metricsAddr != "" {
		reg := tupelo.NewMetrics()
		opts.Metrics = reg
		if *metricsAddr != "" {
			if err := serveMetrics(*metricsAddr, reg); err != nil {
				return err
			}
		}
		if *metrics {
			// Deferred so an aborted run (deadline, budget) still reports
			// its partial counters.
			defer reg.WritePrometheus(os.Stderr)
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var res *tupelo.Result
	var runErr error
	if *portfolio != "" {
		configs, perr := parsePortfolio(*portfolio)
		if perr != nil {
			return fmt.Errorf("discover: %v", perr)
		}
		pres, perr := tupelo.DiscoverPortfolio(ctx, src.DB, tgt.DB, tupelo.PortfolioOptions{
			Configs:    configs,
			Options:    opts,
			MaxRetries: *retries,
		})
		runErr = perr
		if pres != nil {
			res = pres.Result
			if *stats {
				for _, run := range pres.Runs {
					status := "won"
					if run.Err != nil {
						status = "lost: " + run.Err.Error()
					}
					attempts := ""
					if run.Attempts > 1 {
						attempts = fmt.Sprintf(" attempts=%d", run.Attempts)
					}
					fmt.Fprintf(os.Stderr, "portfolio %-24s states=%-8d time=%-12s %s%s\n",
						run.Config, run.Stats.Examined, run.Duration.Round(time.Microsecond), status, attempts)
				}
			}
		}
	} else {
		res, runErr = tupelo.DiscoverContext(ctx, src.DB, tgt.DB, opts)
	}
	if *reportPath != "" {
		// Written even when discovery failed: the report carries the abort
		// cause and whatever the run learned before dying.
		artifacts = append(artifacts, artifact{"report", func() error {
			return writeFileWith(*reportPath, func(w io.Writer) error {
				rep, err := tupelo.BuildReport(res, runErr, src.DB, tgt.DB, opts, reportBuilder)
				if err != nil {
					return err
				}
				return tupelo.WriteRunReport(w, rep)
			})
		}})
	}
	failed := 0
	for _, a := range artifacts {
		if err := a.finish(); err != nil {
			fmt.Fprintf(os.Stderr, "tupelo: %s: %v\n", a.flag, err)
			failed++
		}
	}
	if runErr != nil {
		return runErr
	}
	if res.Partial {
		// Best-effort degradation: the run was aborted but -best-effort asked
		// for the closest state reached instead of an error.
		fmt.Fprintf(os.Stderr, "tupelo: discovery aborted (%v); emitting best-effort partial mapping (heuristic distance %d from target)\n",
			res.AbortErr, res.PartialH)
	}
	expr := res.Expr
	if *simplify {
		expr = tupelo.Simplify(expr, src.DB, tupelo.Builtins())
	}
	fmt.Println(expr)
	if *pretty {
		fmt.Println("#", expr.Pretty())
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "algorithm=%s heuristic=%s k=%g states=%d generated=%d depth=%d\n",
			res.Algorithm, res.Heuristic, res.K, res.Stats.Examined, res.Stats.Generated, res.Stats.Depth)
	}
	if failed > 0 {
		return fmt.Errorf("discover: %d requested artifact(s) not written", failed)
	}
	return nil
}

// serveMetrics exposes the registry over HTTP at /metrics (Prometheus text
// format; append ?format=json for the expvar-style snapshot) for the
// lifetime of the process. The listener is bound synchronously so address
// errors surface before the search starts.
func serveMetrics(addr string, reg *tupelo.Metrics) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics-addr: %v", err)
	}
	fmt.Fprintf(os.Stderr, "tupelo: serving metrics on http://%s/metrics\n", ln.Addr())
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	go func() { _ = http.Serve(ln, mux) }()
	return nil
}

// servePprof exposes net/http/pprof (registered on the default mux by the
// blank import above) on its own listener, bound synchronously so address
// errors surface before the search starts.
func servePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof-addr: %v", err)
	}
	fmt.Fprintf(os.Stderr, "tupelo: serving pprof on http://%s/debug/pprof/\n", ln.Addr())
	go func() { _ = http.Serve(ln, http.DefaultServeMux) }()
	return nil
}

// parseByteSize reads a byte size with an optional K/M/G suffix (powers of
// 1024) and optional trailing "B", e.g. "512M", "2g", "65536", "1GiB".
func parseByteSize(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	upper = strings.TrimSuffix(upper, "IB")
	upper = strings.TrimSuffix(upper, "B")
	mult := uint64(1)
	if n := len(upper); n > 0 {
		switch upper[n-1] {
		case 'K':
			mult, upper = 1<<10, upper[:n-1]
		case 'M':
			mult, upper = 1<<20, upper[:n-1]
		case 'G':
			mult, upper = 1<<30, upper[:n-1]
		}
	}
	v, err := strconv.ParseUint(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if mult > 1 && v > ^uint64(0)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return v * mult, nil
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdApply(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	mapPath := fs.String("mapping", "", "mapping expression file")
	inPath := fs.String("input", "", "database instance file")
	where := fs.String("where", "", "post-processing σ predicate, e.g. 'Route in (ATL29, ORD17)'")
	on := fs.String("on", "", "relation the -where predicate filters")
	conformPath := fs.String("conform", "", "target instance file to conform the result to")
	dropAbsent := fs.Bool("drop-absent", false, "with -conform: drop rows holding absent values")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapPath == "" || *inPath == "" {
		return fmt.Errorf("apply: -mapping and -input are required")
	}
	exprText, err := os.ReadFile(*mapPath)
	if err != nil {
		return err
	}
	expr, err := tupelo.ParseExpr(string(exprText))
	if err != nil {
		return err
	}
	in, err := readInstanceFile(*inPath)
	if err != nil {
		return err
	}
	out, err := expr.Eval(in.DB, tupelo.Builtins())
	if err != nil {
		return err
	}
	if *where != "" {
		if *on == "" {
			return fmt.Errorf("apply: -where needs -on RELATION")
		}
		pred, err := tupelo.ParsePredicate(*where)
		if err != nil {
			return err
		}
		out, err = tupelo.Select(out, *on, pred)
		if err != nil {
			return err
		}
	}
	if *conformPath != "" {
		tgt, err := readInstanceFile(*conformPath)
		if err != nil {
			return err
		}
		out, err = tupelo.Conform(out, tgt.DB, tupelo.ConformOptions{DropAbsentRows: *dropAbsent})
		if err != nil {
			return err
		}
	}
	return tupelo.WriteInstance(os.Stdout, &tupelo.Instance{DB: out})
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	mapPath := fs.String("mapping", "", "mapping expression file")
	samplePath := fs.String("sample", "", "sample instance file (typically the source critical instance)")
	prefix := fs.String("prefix", "", "intermediate table name prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapPath == "" || *samplePath == "" {
		return fmt.Errorf("sql: -mapping and -sample are required")
	}
	exprText, err := os.ReadFile(*mapPath)
	if err != nil {
		return err
	}
	expr, err := tupelo.ParseExpr(string(exprText))
	if err != nil {
		return err
	}
	sample, err := readInstanceFile(*samplePath)
	if err != nil {
		return err
	}
	script, err := tupelo.GenerateSQL(expr, sample.DB, tupelo.SQLOptions{TempPrefix: *prefix})
	if err != nil {
		return err
	}
	fmt.Print(script)
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	inPath := fs.String("input", "", "database instance file")
	showTNF := fs.Bool("tnf", false, "print the Tuple Normal Form encoding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("show: -input is required")
	}
	in, err := readInstanceFile(*inPath)
	if err != nil {
		return err
	}
	fmt.Println(in.DB)
	if *showTNF {
		fmt.Println(tnf.Encode(in.DB))
	}
	return nil
}
