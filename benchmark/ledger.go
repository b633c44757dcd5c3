package main

import (
	"math"
	"strings"
	"time"

	"tupelo/internal/obs"
)

// firaOps are the operator labels of core.op.apply.seconds, one per L
// operator family.
var firaOps = []string{
	"rename_rel", "rename_att", "drop", "promote", "demote", "deref",
	"partition", "product", "union", "merge", "apply",
}

// family reports whether a registry name belongs to the metric family base:
// the bare name or the name with a label set.
func family(name, base string) bool {
	return name == base || strings.HasPrefix(name, base+"{")
}

// counterSum sums every counter of the family over its label sets.
func counterSum(s obs.Snapshot, base string) float64 {
	var sum int64
	for name, v := range s.Counters {
		if family(name, base) {
			sum += v
		}
	}
	return float64(sum)
}

// histSum sums the totals and counts of every histogram of the family.
func histSum(s obs.Snapshot, base string) (time.Duration, int64) {
	var total, count int64
	for name, h := range s.Histograms {
		if family(name, base) {
			total += h.TotalNS
			count += h.Count
		}
	}
	return time.Duration(total), count
}

// timerSum sums the totals and counts of every timer of the family.
func timerSum(s obs.Snapshot, base string) (time.Duration, int64) {
	var total, count int64
	for name, t := range s.Timers {
		if family(name, base) {
			total += t.TotalNS
			count += t.Count
		}
	}
	return time.Duration(total), count
}

// ledgerInput is what the benchmark measures itself, from outside the
// program, for one traced pass.
type ledgerInput struct {
	// wall is the traced discovery wall time: the summed duration of the
	// core.Discover calls, or on serve-mix the summed wall time of every
	// portfolio member (member-seconds).
	wall time.Duration
	// setup is the summed duration of core.DiscoverContext calls under an
	// already-cancelled context, one per discovery: problem construction
	// plus the start state's estimate.
	setup time.Duration
	// startEval is the heuristic time inside those calls, read from the
	// probes' own registry: the estimates IDA* and RBFS make outside any
	// expansion (every successor is pre-warmed inside the expansion that
	// generates it).
	startEval time.Duration
}

// engineLayers splits one traced pass's discovery wall time into the
// ledger's parts, reading the instruments core.Options.Metrics exposes, and
// derives the search-side ratios. The parts are core.setup_s,
// core.expand_s (itself fira.apply_s + heuristic.prewarm_s +
// core.movegen_self_s), relation.goaltest_s and search.self_s, the
// remainder; the signed residual is whatever the parts overshoot the wall
// by, so parts plus residual equal ledger.wall_s exactly.
func engineLayers(s obs.Snapshot, in ledgerInput) map[string]float64 {
	expand, _ := histSum(s, "search.expand.seconds")
	goal, goalN := histSum(s, "search.goaltest.seconds")
	heur, heurN := histSum(s, "heuristic.eval.seconds")
	apply, _ := histSum(s, "core.op.apply.seconds")
	prewarm := max(0, heur-in.startEval)
	self := max(0, in.wall-in.setup-expand-goal)
	residual := in.wall - (in.setup + expand + goal + self)

	proposed := counterSum(s, "core.ops.proposed")
	applied := counterSum(s, "core.ops.applied")
	memoHits := counterSum(s, "core.succmemo.hits")
	cacheHits := counterSum(s, "heuristic.cache.hits")

	m := map[string]float64{
		"ledger.wall_s":              in.wall.Seconds(),
		"core.setup_s":               in.setup.Seconds(),
		"heuristic.outside_expand_s": in.startEval.Seconds(),
		"core.expand_s":              expand.Seconds(),
		"fira.apply_s":               apply.Seconds(),
		"heuristic.prewarm_s":        prewarm.Seconds(),
		"core.movegen_self_s":        (expand - apply - prewarm).Seconds(),
		"relation.goaltest_s":        goal.Seconds(),
		"search.self_s":              self.Seconds(),
		"ledger.residual_s":          residual.Seconds(),
		"ledger.residual_frac":       ratio(math.Abs(residual.Seconds()), in.wall.Seconds()),
		"search.examined":            counterSum(s, "search.examined"),
		"search.generated":           counterSum(s, "search.generated"),
		"core.succmemo_hit_frac":     ratio(memoHits, memoHits+counterSum(s, "core.succmemo.misses")),
		"core.ops_applied":           applied,
		"core.ops_applied_frac":      ratio(applied, proposed),
		"heuristic.eval_s":           heur.Seconds(),
		"heuristic.evals":            float64(heurN),
		"heuristic.eval_ns_mean":     ratio(float64(heur), float64(heurN)),
		"heuristic.cache_hit_frac":   ratio(cacheHits, cacheHits+counterSum(s, "heuristic.cache.misses")),
		"relation.goaltest_ns_mean":  ratio(float64(goal), float64(goalN)),
	}
	for _, op := range firaOps {
		d, _ := histSum(s, obs.Name("core.op.apply.seconds", "op", op))
		m["fira.apply_s."+op] = d.Seconds()
		m["fira.apply_frac."+op] = ratio(float64(d), float64(apply))
	}
	return m
}
