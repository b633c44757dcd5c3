package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"tupelo/internal/core"
	"tupelo/internal/critio"
	"tupelo/internal/datagen"
	"tupelo/internal/experiments"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/repo"
	"tupelo/internal/search"
)

// budget is the per-discovery state budget of both discovery workloads,
// tupelo-bench's default: a run that exhausts it is censored and counts at
// the budget.
const budget = 50000

// task is one discovery of a discovery workload.
type task struct {
	// series groups the tasks of one (algorithm, heuristic) curve: as in
	// tupelo-bench, a curve stops at its first censored task.
	series   string
	label    string
	algo     search.Algorithm
	kind     heuristic.Kind
	src, tgt *relation.Database
	corrs    []lambda.Correspondence
	registry *lambda.Registry
}

func (t *task) options(reg *obs.Registry) core.Options {
	return core.Options{
		Algorithm:       t.algo,
		Heuristic:       t.kind,
		Registry:        t.registry,
		Correspondences: t.corrs,
		Limits:          search.Limits{MaxStates: budget},
		Workers:         1,
		Metrics:         reg,
	}
}

// exp1Tasks is the paper's Exp1 grid exactly as tupelo-bench -exp 1 runs
// it: IDA then RBFS, each over the set heuristics (blind ones capped at
// n = 10) and the vector heuristics, one fresh MatchingPair per cell.
func exp1Tasks() ([]task, error) {
	var tasks []task
	for _, algo := range experiments.BothAlgorithms() {
		o := experiments.DefaultExp1Options(algo)
		add := func(kind heuristic.Kind, sizes []int) error {
			for _, n := range sizes {
				src, tgt, err := datagen.MatchingPair(n)
				if err != nil {
					return err
				}
				tasks = append(tasks, task{
					series: fmt.Sprintf("%s/%s", algo, kind),
					label:  fmt.Sprintf("exp1 %s/%s n=%d", algo, kind, n),
					algo:   algo, kind: kind, src: src, tgt: tgt,
				})
			}
			return nil
		}
		for _, kind := range experiments.SetHeuristics() {
			sizes := o.SetSizes
			if kind == heuristic.H0 || kind == heuristic.H2 {
				sizes = o.BlindSizes
			}
			if err := add(kind, sizes); err != nil {
				return nil, err
			}
		}
		for _, kind := range experiments.VectorHeuristics() {
			if err := add(kind, o.VectorSizes); err != nil {
				return nil, err
			}
		}
	}
	return tasks, nil
}

// restructureTasks mixes the Fig. 1 / Example 2 restructuring (promote,
// drop, merge, rename) on datagen.FlightsScaled pairs at several instance
// sizes with Exp3's Inventory tasks, whose λ apply operators resolve
// through the domain's registry. Every (algorithm, heuristic, task) listed
// solves within the budget.
func restructureTasks() ([]task, error) {
	var tasks []task
	add := func(series, label, config string, src, tgt *relation.Database, corrs []lambda.Correspondence, reg *lambda.Registry) error {
		algo, kind, err := parseConfig(config)
		if err != nil {
			return err
		}
		tasks = append(tasks, task{
			series: series + "/" + config, label: label + " " + config,
			algo: algo, kind: kind, src: src, tgt: tgt, corrs: corrs, registry: reg,
		})
		return nil
	}
	flightsConfigs := []string{
		"RBFS/h1", "RBFS/h3", "IDA/h1", "IDA/h3", "RBFS/cosine", "IDA/cosine",
		"RBFS/euclid-norm", "IDA/euclid-norm", "RBFS/euclid", "RBFS/h2",
	}
	for _, size := range [][2]int{{2, 2}, {3, 2}, {4, 3}, {6, 4}, {8, 4}} {
		configs := flightsConfigs
		if size[0]*size[1] <= 6 {
			// Levenshtein's string distances grow with the instance; it
			// stays in the mix only at the Fig. 1 sizes.
			configs = append(configs[:len(configs):len(configs)], "RBFS/levenshtein")
		}
		for _, cfg := range configs {
			src, tgt, err := datagen.FlightsScaled(size[0], size[1])
			if err != nil {
				return nil, err
			}
			if err := add("flights", fmt.Sprintf("flights %dx%d", size[0], size[1]), cfg, src, tgt, nil, nil); err != nil {
				return nil, err
			}
		}
	}
	// Inventory curves, each up to the largest n it solves within the
	// budget (EXPERIMENTS.md, Fig. 9).
	for _, inv := range []struct {
		config string
		maxN   int
	}{
		{"IDA/h1", 8}, {"IDA/h3", 8}, {"RBFS/h1", 8}, {"RBFS/h3", 8},
		{"IDA/cosine", 4}, {"RBFS/cosine", 7}, {"IDA/euclid-norm", 5}, {"RBFS/euclid-norm", 3},
	} {
		dom := datagen.Inventory()
		for n := 1; n <= inv.maxN; n++ {
			src, tgt, corrs, err := dom.Task(n)
			if err != nil {
				return nil, err
			}
			if err := add("inventory", fmt.Sprintf("inventory n=%d", n), inv.config, src, tgt, corrs, dom.Registry); err != nil {
				return nil, err
			}
		}
	}
	return tasks, nil
}

// parseConfig reads an "algo/heuristic" pair.
func parseConfig(s string) (search.Algorithm, heuristic.Kind, error) {
	a, k, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad config %q", s)
	}
	algo, err := search.ParseAlgorithm(a)
	if err != nil {
		return 0, 0, err
	}
	kind, err := heuristic.ParseKind(k)
	if err != nil {
		return 0, 0, err
	}
	return algo, kind, nil
}

// discoveryWorkload runs a list of discoveries one at a time (Workers: 1).
type discoveryWorkload struct {
	gen func() ([]task, error)
	// root holds the scratch store the persistence layers are measured on.
	root string
	// tasks are the current pass's inputs; probes are an independent copy
	// of them (fresh databases, so no memoized state is shared) that a
	// traced pass runs the set-up probes on.
	tasks, probes []task
	// published holds the persistence-layer values measured on this run's
	// mappings: once per run, on the first traced pass.
	published map[string]float64
}

func newDiscoveryWorkload(gen func() ([]task, error), root string) *discoveryWorkload {
	return &discoveryWorkload{gen: gen, root: root}
}

// setup generates the pass's inputs: fresh databases every pass, so that
// every pass pays the same memoization cost.
func (w *discoveryWorkload) setup(traced bool) error {
	var err error
	if w.tasks, err = w.gen(); err != nil {
		return err
	}
	w.probes = nil
	if traced {
		w.probes, err = w.gen()
	}
	return err
}

func (w *discoveryWorkload) teardown() error {
	w.tasks, w.probes = nil, nil
	return nil
}

// outcome is one discovery's result.
type outcome struct {
	res      *core.Result
	err      error
	d        time.Duration
	ran      bool
	censored bool
}

// pass runs every task once. A traced pass attaches one registry to every
// discovery and afterwards runs the set-up probes; certification happens
// after the timed phase.
func (w *discoveryWorkload) pass(traced bool) (*passResult, error) {
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	outs := make([]outcome, len(w.tasks))
	stopped := make(map[string]bool)
	rt0 := sampleRuntime()
	start := time.Now()
	for i := range w.tasks {
		t := &w.tasks[i]
		if stopped[t.series] {
			continue
		}
		t0 := time.Now()
		res, err := core.Discover(t.src, t.tgt, t.options(reg))
		outs[i] = outcome{res: res, err: err, d: time.Since(t0), ran: true}
		if errors.Is(err, search.ErrLimit) {
			outs[i].censored = true
			stopped[t.series] = true
		}
	}
	wall := time.Since(start)
	p := &passResult{wall: wall, rt: rt0.until(sampleRuntime()), lat: map[string][]time.Duration{}}

	var fp strings.Builder
	for i, o := range outs {
		if !o.ran {
			continue
		}
		t := &w.tasks[i]
		p.attempted++
		p.discoveries++
		p.busy += o.d
		p.lat["discovery"] = append(p.lat["discovery"], o.d)
		switch {
		case o.censored:
			p.states += budget
			fmt.Fprintf(&fp, "%d:censored ", i)
		case o.err != nil:
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", t.label, o.err))
		default:
			p.states += o.res.Stats.Examined
			fmt.Fprintf(&fp, "%d:%d ", i, o.res.Stats.Examined)
			if err := core.Verify(o.res.Expr, t.src, t.tgt, t.registry); err != nil {
				p.failures = append(p.failures, fmt.Sprintf("%s: mapping failed certification: %v", t.label, err))
				continue
			}
			p.solved++
		}
	}
	p.fingerprint = fp.String()
	p.searched = p.states
	if traced {
		p.layers = w.layers(reg, outs, p.busy)
		if w.published == nil {
			var err error
			if w.published, err = w.publish(outs); err != nil {
				return nil, err
			}
		}
		for k, v := range w.published {
			p.layers[k] = v
		}
	}
	return p, nil
}

// layers runs the set-up probe of every discovery the pass ran and builds
// the pass's ledger.
func (w *discoveryWorkload) layers(reg *obs.Registry, outs []outcome, wall time.Duration) map[string]float64 {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	probeReg := obs.NewRegistry()
	var setup time.Duration
	for i, o := range outs {
		if !o.ran {
			continue
		}
		t := &w.probes[i]
		t0 := time.Now()
		_, _ = core.DiscoverContext(cancelled, t.src, t.tgt, t.options(probeReg))
		setup += time.Since(t0)
	}
	startEval, _ := histSum(probeReg.Snapshot(), "heuristic.eval.seconds")
	return engineLayers(reg.Snapshot(), ledgerInput{wall: wall, setup: setup, startEval: startEval})
}

// publish measures the layers a served mapping passes through, on this
// workload's own instances and certified mappings: critio parsing plus
// repo.PairKey of every pair's text form, one fsync'd repo.Put per
// mapping into a scratch store under the workload's root, and the recovery scan
// of reopening that store.
func (w *discoveryWorkload) publish(outs []outcome) (map[string]float64, error) {
	dir, err := storeDir(w.root, "publish-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := repo.Open(dir, repo.Options{})
	if err != nil {
		return nil, err
	}
	var parse, put time.Duration
	var parsed, puts int
	for i, o := range outs {
		if !o.ran || o.err != nil {
			continue
		}
		t := &w.tasks[i]
		srcText := critio.WriteString(&critio.Instance{DB: t.src, Corrs: t.corrs})
		tgtText := critio.WriteString(&critio.Instance{DB: t.tgt})
		t0 := time.Now()
		key, err := parsePair(srcText, tgtText)
		parse += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.label, err)
		}
		parsed++
		e := &repo.Entry{
			Key: key, SourceKey: key[:32], TargetKey: key[32:],
			Expr: o.res.Expr.String(), Algorithm: o.res.Algorithm.String(),
			Heuristic: o.res.Heuristic.String(), K: o.res.K, Examined: o.res.Stats.Examined,
		}
		t0 = time.Now()
		if err := store.Put(e); err != nil {
			return nil, err
		}
		put += time.Since(t0)
		puts++
	}
	t0 := time.Now()
	if _, err := repo.Open(dir, repo.Options{}); err != nil {
		return nil, err
	}
	return map[string]float64{
		"repo.open_s":     time.Since(t0).Seconds(),
		"critio.parse_us": ratio(float64(parse)/float64(time.Microsecond), float64(parsed)),
		"repo.put_ms":     ratio(float64(put)/float64(time.Millisecond), float64(puts)),
	}, nil
}

// parsePair parses a pair's critio texts and returns its repository key:
// the request-decoding work tupelo-serve does before a repository lookup.
func parsePair(srcText, tgtText string) (string, error) {
	src, err := critio.ReadString(srcText)
	if err != nil {
		return "", err
	}
	tgt, err := critio.ReadString(tgtText)
	if err != nil {
		return "", err
	}
	return repo.PairKey(src.DB, tgt.DB), nil
}

// storeDir is where a workload keeps on-disk state; it lives inside the
// checkout the benchmark runs from.
func storeDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}
