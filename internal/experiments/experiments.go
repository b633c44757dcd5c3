// Package experiments reproduces the evaluation of "Data Mapping as Search"
// (EDBT 2006, §5): Experiment 1 (schema matching on synthetic data, Figs.
// 5–6), Experiment 2 (schema matching on BAMM deep-web schemas, Figs. 7–8),
// Experiment 3 (complex semantic mapping, Fig. 9), and the scaling-constant
// calibration of the experimental setup. The performance measure throughout
// is the number of states examined during search, exactly as in the paper.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"tupelo/internal/core"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// Measurement is one experimental run: a (task, algorithm, heuristic)
// triple and its outcome.
type Measurement struct {
	// Experiment is the experiment identifier ("exp1", "exp2", "exp3",
	// "calibrate").
	Experiment string
	// Label qualifies the task (domain name, workload family).
	Label string
	// Param is the x-axis value: schema size (exp1), target index (exp2),
	// number of complex functions (exp3), or k (calibrate).
	Param int
	// Algorithm and Heuristic identify the configuration.
	Algorithm search.Algorithm
	Heuristic heuristic.Kind
	// States is the number of states examined. When the run exhausted its
	// budget, States is the budget and Censored is true (matching how the
	// paper's log-scale plots saturate).
	States   int
	Censored bool
	// PathLen is the discovered expression length (0 when censored).
	PathLen int
	// Duration is wall-clock time, reported as secondary information only.
	Duration time.Duration
	// HAccuracy is the run heuristic's quality score ∈ [0,1] measured along
	// the found solution path (obs.HeuristicQuality.Accuracy): how well the
	// heuristic's estimates track the true remaining cost, scale-invariant.
	// 0 for censored runs and for heuristics with no signal (h0 by
	// construction scores exactly 0).
	HAccuracy float64
}

// Config configures an experiment run.
type Config struct {
	// Budget is the per-run state budget (default 50,000).
	Budget int
	// Seed drives the deterministic workload generators.
	Seed int64
	// Progress, when non-nil, receives one line per completed measurement.
	Progress io.Writer
	// Metrics, when non-nil, aggregates observability counters (states
	// examined per algorithm, cache hit rates, operator proposal counts)
	// across every run of the experiment. The registry is race-safe, so one
	// registry may span all experiments of a bench invocation.
	Metrics *obs.Registry
	// Collect, when non-nil, receives every completed Measurement —
	// including those of experiments whose return type aggregates them away
	// (calibration sweeps) — so callers can assemble machine-readable
	// reports (tupelo-bench -bench-out) without changing each experiment's
	// signature.
	Collect func(Measurement)
	// MaxHeapBytes adds a per-run heap budget (search.Limits.MaxHeapBytes);
	// 0 means none. Runs aborted by it count as censored, like state-budget
	// aborts.
	MaxHeapBytes uint64
	// BestEffort enables best-effort degradation: a budget- or
	// deadline-aborted run reports the states it actually examined (still
	// censored) instead of failing, and the partial path length it reached.
	BestEffort bool
	// Retries is the portfolio experiment's member-restart budget
	// (PortfolioOptions.MaxRetries); ignored by the single-config
	// experiments.
	Retries int
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 50000
	}
	return c
}

// limits builds the per-run search limits the configuration implies. Every
// experiment runner uses it so -max-mem and -best-effort apply uniformly.
func (c Config) limits() search.Limits {
	return search.Limits{
		MaxStates:    c.Budget,
		MaxHeapBytes: c.MaxHeapBytes,
		BestEffort:   c.BestEffort,
	}
}

// run performs one discovery and records the outcome.
func run(exp, label string, param int, algo search.Algorithm, kind heuristic.Kind,
	src, tgt *relation.Database, corrs []lambda.Correspondence, reg *lambda.Registry,
	cfg Config) (Measurement, error) {

	m := Measurement{
		Experiment: exp,
		Label:      label,
		Param:      param,
		Algorithm:  algo,
		Heuristic:  kind,
	}
	opts := core.Options{
		Algorithm:       algo,
		Heuristic:       kind,
		Registry:        reg,
		Correspondences: corrs,
		Limits:          cfg.limits(),
		Metrics:         cfg.Metrics,
	}
	start := time.Now()
	res, err := core.Discover(src, tgt, opts)
	m.Duration = time.Since(start)
	switch {
	case err == nil && res.Partial:
		// Best-effort degradation: the run was aborted but reports its
		// actual effort and the partial path it reached. Still censored —
		// the mapping is incomplete — but the states axis stays honest
		// instead of saturating at the budget.
		m.States = res.Stats.Examined
		m.Censored = true
		m.PathLen = len(res.Expr)
	case err == nil:
		m.States = res.Stats.Examined
		m.PathLen = len(res.Expr)
		// Profile the run's own heuristic along the solution path it found.
		// The replay is one estimator over PathLen+1 states — noise next to
		// the search itself — and gives every bench measurement a quality
		// score the analyzer can rank kinds by.
		if qs, qerr := core.HeuristicProfile(res, src, tgt, opts, kind); qerr == nil && len(qs) == 1 {
			m.HAccuracy = qs[0].Accuracy
		}
	case errors.Is(err, search.ErrLimit):
		m.States = cfg.Budget
		m.Censored = true
	default:
		return m, fmt.Errorf("experiments: %s %s/%s param=%d: %w", exp, algo, kind, param, err)
	}
	if cfg.Progress != nil {
		status := fmt.Sprintf("states=%d", m.States)
		if m.Censored {
			status = fmt.Sprintf("censored@%d", m.States)
		}
		fmt.Fprintf(cfg.Progress, "%s %-10s %-5s %-12s param=%-3d %s (%s)\n",
			exp, label, algo, kind, param, status, m.Duration.Round(time.Millisecond))
	}
	if cfg.Collect != nil {
		cfg.Collect(m)
	}
	return m, nil
}

// SetHeuristics are the four set-based heuristics the paper plots on the
// full n=2..32 range of Experiment 1.
func SetHeuristics() []heuristic.Kind {
	return []heuristic.Kind{heuristic.H0, heuristic.H1, heuristic.H2, heuristic.H3}
}

// VectorHeuristics are the string/vector heuristics the paper plots on the
// reduced n=1..8 range of Experiment 1.
func VectorHeuristics() []heuristic.Kind {
	return []heuristic.Kind{heuristic.Euclid, heuristic.EuclidNorm, heuristic.Cosine, heuristic.Levenshtein}
}

// BothAlgorithms returns the paper's two search algorithms.
func BothAlgorithms() []search.Algorithm {
	return []search.Algorithm{search.IDA, search.RBFS}
}
