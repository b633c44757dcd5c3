package core

import (
	"time"

	"tupelo/internal/fira"
	"tupelo/internal/obs"
)

// opKindNames enumerates the operator families of L for metric labels;
// "other" collects operators added without a case in opKind.
var opKindNames = []string{
	"rename_rel", "rename_att", "drop", "promote", "demote", "deref",
	"partition", "product", "union", "merge", "apply", "other",
}

// opKindMetricNames are the per-operator-kind instrument names, in
// opKindNames order: built once, not for every problem a run constructs.
var opKindMetricNames = func() []kindMetricNames {
	out := make([]kindMetricNames, len(opKindNames))
	for i, k := range opKindNames {
		out[i] = kindMetricNames{
			kind:     k,
			proposed: obs.Name("core.ops.proposed", "op", k),
			applied:  obs.Name("core.ops.applied", "op", k),
			applySec: obs.Name("core.op.apply.seconds", "op", k),
		}
	}
	return out
}()

// kindMetricNames is one operator kind and the names of its three instruments.
type kindMetricNames struct{ kind, proposed, applied, applySec string }

// opKind names an operator's family for per-kind metrics.
func opKind(op fira.Op) string {
	switch op.(type) {
	case fira.RenameRel:
		return "rename_rel"
	case fira.RenameAtt:
		return "rename_att"
	case fira.Drop:
		return "drop"
	case fira.Promote:
		return "promote"
	case fira.Demote:
		return "demote"
	case fira.Deref:
		return "deref"
	case fira.Partition:
		return "partition"
	case fira.Product:
		return "product"
	case fira.Union:
		return "union"
	case fira.Merge:
		return "merge"
	case fira.Apply:
		return "apply"
	default:
		return "other"
	}
}

// opMetrics holds the successor generator's pre-resolved instruments:
// per-operator-kind proposed/applied counters, worker-pool utilization, and
// the memo and estimate lookups of the run's state table.
// All counters are resolved once per problem so the per-expansion cost is a
// type switch and an atomic increment. Methods on a nil *opMetrics are
// no-ops, so call sites read unconditionally.
type opMetrics struct {
	proposed map[string]*obs.Counter
	applied  map[string]*obs.Counter
	applySec map[string]*obs.Histogram
	// poolParallel / poolSerial count expansions dispatched to the worker
	// pool vs. applied inline (too few candidates or Workers == 1);
	// poolOps counts operator applications that went through the pool and
	// poolWidth tracks the widest pool used.
	poolParallel *obs.Counter
	poolSerial   *obs.Counter
	poolOps      *obs.Counter
	poolWidth    *obs.Gauge
	// memoHits / memoMisses count successor-memo outcomes. They are the
	// denominator that makes the per-op apply metrics honest: a hit skips
	// the operator pipeline entirely, so core.op.apply.seconds and the
	// proposed/applied counters sample only the misses (first expansions).
	// Without these, "operators are fast" and "operators rarely ran" were
	// indistinguishable — search.examined reported full throughput while
	// the apply histograms saw <1% of expansions.
	memoHits   *obs.Counter
	memoMisses *obs.Counter
	// estHits / estMisses count estimate lookups — at successor creation
	// and in the search loop — and estEntries the estimates published.
	// They report as heuristic.cache.*, labelled by cacheLabel, the names
	// the benchmark ledger reads.
	estHits    *obs.Counter
	estMisses  *obs.Counter
	estEntries *obs.Gauge
}

// newOpMetrics resolves the successor-generation instruments in reg, or
// returns nil (all methods no-ops) when reg is nil. hLabel labels the
// estimate lookup instruments.
func newOpMetrics(reg *obs.Registry, hLabel string) *opMetrics {
	if reg == nil {
		return nil
	}
	m := &opMetrics{
		proposed:     make(map[string]*obs.Counter, len(opKindNames)),
		applied:      make(map[string]*obs.Counter, len(opKindNames)),
		applySec:     make(map[string]*obs.Histogram, len(opKindNames)),
		poolParallel: reg.Counter("core.pool.expansions.parallel"),
		poolSerial:   reg.Counter("core.pool.expansions.serial"),
		poolOps:      reg.Counter("core.pool.ops"),
		poolWidth:    reg.Gauge("core.pool.width.max"),
		memoHits:     reg.Counter("core.succmemo.hits"),
		memoMisses:   reg.Counter("core.succmemo.misses"),
		estHits:      reg.Counter(obs.Name("heuristic.cache.hits", "cache", hLabel)),
		estMisses:    reg.Counter(obs.Name("heuristic.cache.misses", "cache", hLabel)),
		estEntries:   reg.Gauge(obs.Name("heuristic.cache.entries", "cache", hLabel)),
	}
	for _, n := range opKindMetricNames {
		m.proposed[n.kind] = reg.Counter(n.proposed)
		m.applied[n.kind] = reg.Counter(n.applied)
		m.applySec[n.kind] = reg.Histogram(n.applySec)
	}
	return m
}

// applyLatency records one operator application's latency into its kind's
// histogram.
func (m *opMetrics) applyLatency(op fira.Op, d time.Duration) {
	if m == nil {
		return
	}
	m.applySec[opKind(op)].Observe(d)
}

// count records one proposed candidate operator and, when it yielded a
// state-changing successor, one applied operator.
func (m *opMetrics) count(op fira.Op, applied bool) {
	if m == nil {
		return
	}
	k := opKind(op)
	m.proposed[k].Inc()
	if applied {
		m.applied[k].Inc()
	}
}

// memo records one successor-memo lookup outcome.
func (m *opMetrics) memo(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.memoHits.Inc()
	} else {
		m.memoMisses.Inc()
	}
}

// estimate records one estimate lookup outcome.
func (m *opMetrics) estimate(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.estHits.Inc()
	} else {
		m.estMisses.Inc()
	}
}

// entry records one published estimate.
func (m *opMetrics) entry() {
	if m == nil {
		return
	}
	m.estEntries.Add(1)
}

// poolExpansion records one expansion's worker-pool shape: width 1 means the
// candidates were applied inline.
func (m *opMetrics) poolExpansion(width, ops int) {
	if m == nil {
		return
	}
	if width <= 1 {
		m.poolSerial.Inc()
		return
	}
	m.poolParallel.Inc()
	m.poolOps.Add(int64(ops))
	m.poolWidth.Max(int64(width))
}
