package core

import (
	"errors"
	"fmt"
	"time"

	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// BuildReport assembles the tupelo-report/v1 run report for one discovery:
// the outcome and effort of the run, the effective branching factor, the
// heuristic-quality profile of every heuristic kind along the found solution
// path, and — when a ReportBuilder traced the run — the span tree,
// cache/memo hit rates and the performance profile.
//
// res and runErr are the discovery outcome (either may be nil/non-nil as
// returned by DiscoverContext or DiscoverPortfolio); opts must be the
// options the run used. The reported configuration (algorithm, heuristic,
// K, and the heuristic profile's used kind) is the one res records, so a
// portfolio's report names the member that produced it; opts supplies it
// only when the run returned no result.
func BuildReport(res *Result, runErr error, source, target *relation.Database, opts Options, rb *obs.ReportBuilder) (*obs.RunReport, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if res != nil {
		opts.Algorithm, opts.Heuristic, opts.K = res.Algorithm, res.Heuristic, res.K
	}
	r := &obs.RunReport{
		Schema:      obs.ReportSchema,
		GeneratedAt: time.Now().UTC(),
		Algorithm:   opts.Algorithm.String(),
		Heuristic:   opts.Heuristic.String(),
		K:           opts.K,
	}
	switch {
	case res != nil:
		r.Solved = !res.Partial
		r.Partial = res.Partial
		stampStats(r, res.Stats)
		if res.Partial && res.AbortErr != nil {
			r.AbortCause = abortCause(res.AbortErr)
		}
	case runErr != nil:
		r.Error = runErr.Error()
		r.AbortCause = abortCause(runErr)
		var serr *search.Error
		if errors.As(runErr, &serr) {
			stampStats(r, serr.Stats)
		}
	}
	if r.Solved && r.Depth > 0 {
		r.EBF = obs.EffectiveBranchingFactor(r.Examined, r.Depth)
	}
	if res != nil && !res.Partial && source != nil && target != nil {
		if quality, err := heuristicProfile(res, source, target, opts, nil); err == nil {
			r.HeuristicQuality = quality
		}
	}
	if rb != nil {
		rb.Fill(r)
	}
	return r, nil
}

// stampStats copies search statistics into the report.
func stampStats(r *obs.RunReport, st search.Stats) {
	r.Examined = st.Examined
	r.Generated = st.Generated
	r.MaxFrontier = st.MaxFrontier
	r.Iterations = st.Iterations
	r.Depth = st.Depth
}

// abortCause extracts the stable cause vocabulary from a search error.
func abortCause(err error) string {
	var serr *search.Error
	if errors.As(err, &serr) {
		return serr.Cause()
	}
	return "error"
}

// HeuristicProfile replays the solution path of a solved result and profiles
// heuristic kinds against the true remaining cost at each path state. With no
// explicit kinds it profiles every paper heuristic (plus the configured one
// when that is an extension); with kinds it profiles exactly those, in order.
// opts must be the options the run used — the replay needs its λ registry and
// the profile its scaling constants.
func HeuristicProfile(res *Result, source, target *relation.Database, opts Options, kinds ...heuristic.Kind) ([]obs.HeuristicQuality, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if res == nil || res.Partial {
		return nil, fmt.Errorf("core: heuristic profile needs a solved result")
	}
	return heuristicProfile(res, source, target, opts, kinds)
}

// heuristicProfile replays the found solution path — the discovered
// expression applied one operator at a time to the source instance — and
// profiles the requested heuristic kinds (every paper kind when kinds is
// nil) against the true remaining cost at each state. With unit move costs
// the state after i of D operators has true remaining cost D−i; the goal
// state closes the profile at 0, where a good heuristic must also reach 0.
func heuristicProfile(res *Result, source, target *relation.Database, opts Options, kinds []heuristic.Kind) ([]obs.HeuristicQuality, error) {
	states := []*relation.Database{source}
	cur := source
	for _, op := range res.Expr {
		next, err := op.Apply(cur, opts.Registry)
		if err != nil {
			return nil, fmt.Errorf("core: replaying solution path: %v", err)
		}
		states = append(states, next)
		cur = next
	}
	d := len(res.Expr)
	if kinds == nil {
		kinds = heuristic.Kinds()
		used := false
		for _, k := range kinds {
			if k == opts.Heuristic {
				used = true
			}
		}
		if !used {
			kinds = append(kinds, opts.Heuristic)
		}
	}
	out := make([]obs.HeuristicQuality, 0, len(kinds))
	for _, kind := range kinds {
		k := heuristic.DefaultK(opts.Algorithm, kind)
		if kind == opts.Heuristic {
			k = opts.K
		}
		est := heuristic.New(kind, target, k)
		q := obs.HeuristicQuality{
			Kind: kind.String(),
			K:    k,
			Used: kind == opts.Heuristic,
		}
		for i, s := range states {
			q.Samples = append(q.Samples, obs.HSample{
				Depth:         i,
				H:             est.Estimate(s),
				TrueRemaining: d - i,
			})
		}
		q.Finalize()
		out = append(out, q)
	}
	return out, nil
}
