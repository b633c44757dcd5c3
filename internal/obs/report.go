package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// This file defines the run report — the per-run forensic artifact of the
// forensics layer: a stable `tupelo-report/v1` JSON document assembling a
// span tree (run → portfolio member → search) with per-span timings, plus
// derived analytics answering the paper's central question of *why* a
// heuristic examined the states it did: the heuristic-quality profile (h(s)
// against true remaining cost along the found solution path), the effective
// branching factor, cache and memo hit rates, and the abort cause. The obs
// package owns the schema and the analytics math; the core package
// assembles reports (it knows heuristics and solution paths), and
// cmd/tupelo-trace consumes them.

// ReportSchema identifies the run-report JSON format. Stability contract as
// for tupelo-bench/v1: fields may be added in later versions, never renamed
// or re-typed. Fields that were dropped — the `workers` configuration and
// the `shards` section of the removed parallel single-search — are ignored
// when an older document is read.
const ReportSchema = "tupelo-report/v1"

// RunReport is the root document.
type RunReport struct {
	Schema      string    `json:"schema"`
	GeneratedAt time.Time `json:"generated_at"`

	// Configuration of the reported run.
	Algorithm string  `json:"algorithm,omitempty"`
	Heuristic string  `json:"heuristic,omitempty"`
	K         float64 `json:"k,omitempty"`

	// Outcome.
	Solved     bool   `json:"solved"`
	Partial    bool   `json:"partial,omitempty"`
	AbortCause string `json:"abort_cause,omitempty"`
	Error      string `json:"error,omitempty"`

	// Effort, as in search.Stats.
	Examined    int   `json:"examined"`
	Generated   int   `json:"generated"`
	MaxFrontier int   `json:"max_frontier,omitempty"`
	Iterations  int   `json:"iterations,omitempty"`
	Depth       int   `json:"depth,omitempty"`
	DurationNS  int64 `json:"duration_ns,omitempty"`

	// EBF is the effective branching factor: the uniform branching factor
	// b* whose tree of the solution depth contains exactly the examined
	// node count. 0 when the run found no solution (the depth is unknown).
	EBF float64 `json:"ebf,omitempty"`

	// Span is the root of the span tree.
	Span *Span `json:"span,omitempty"`

	// HeuristicQuality profiles every heuristic kind along the found
	// solution path; the entry with Used set is the run's own heuristic.
	HeuristicQuality []HeuristicQuality `json:"heuristic_quality,omitempty"`

	// Caches reports heuristic-cache hit rates, one entry per cache label.
	Caches []CacheReport `json:"caches,omitempty"`

	// Memo reports the successor-memo hit rate; nil when the memo saw no
	// traffic.
	Memo *CacheReport `json:"memo,omitempty"`
}

// Span is one timed node of the run's span tree.
type Span struct {
	// Name identifies the span: "run" at the root, the member configuration
	// for portfolio members, the algorithm for search runs.
	Name string `json:"name"`
	// Kind is "run", "member", or "search".
	Kind string `json:"kind"`
	// StartNS is the span start, nanoseconds since the root span started.
	StartNS int64 `json:"start_ns"`
	// DurationNS is the span length; 0 if the span never closed.
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Examined is the states examined within the span, where known.
	Examined int `json:"examined,omitempty"`
	// Outcome is "solved"/"failed" for search spans, "win"/"lose"/"cancel"
	// for members, empty when unknown.
	Outcome string `json:"outcome,omitempty"`
	// Error is the failure text for failed spans.
	Error string `json:"error,omitempty"`
	// Children are the nested spans.
	Children []*Span `json:"children,omitempty"`
}

// HeuristicQuality profiles one heuristic kind against the true remaining
// cost along the found solution path. With unit move costs the state at
// depth d of a depth-D solution has true remaining cost D−d; a heuristic is
// good exactly when its estimates track that quantity, which is what the
// paper's states-examined rankings measure indirectly.
type HeuristicQuality struct {
	Kind string  `json:"kind"`
	K    float64 `json:"k,omitempty"`
	// Used marks the run's own heuristic.
	Used bool `json:"used,omitempty"`
	// Samples holds one entry per state along the solution path (depth
	// ascending, start state first) — the per-depth error profile.
	Samples []HSample `json:"samples,omitempty"`
	// MeanAbsErr and MeanErr are the mean absolute and mean signed error of
	// the calibrated estimates against true remaining cost, normalized by
	// the solution depth (so runs of different depth are comparable).
	MeanAbsErr float64 `json:"mean_abs_err"`
	MeanErr    float64 `json:"mean_err"`
	// Correlation is the Pearson correlation between raw h and true
	// remaining cost along the path — scale-invariant, so the paper's
	// k-scaled heuristics are not penalized for their scale. 0 when h is
	// constant (h0) or the path is too short.
	Correlation float64 `json:"correlation"`
	// AdmissibilityViolations counts path states whose raw h exceeded the
	// true remaining cost.
	AdmissibilityViolations int `json:"admissibility_violations"`
	// Accuracy is the scalar ranking score in [0, 1] combining correlation
	// (does h order states correctly?) and calibrated error (is h
	// proportionally right?). See Finalize for the formula.
	Accuracy float64 `json:"accuracy"`
}

// HSample is one solution-path state's heuristic sample.
type HSample struct {
	Depth         int `json:"depth"`
	H             int `json:"h"`
	TrueRemaining int `json:"true_remaining"`
}

// Finalize derives MeanAbsErr, MeanErr, Correlation,
// AdmissibilityViolations, and Accuracy from Samples. Calibration: the raw
// estimates are rescaled so the start state's estimate equals its true
// remaining cost (when the raw estimate is positive), making the error of
// k-scaled heuristics measure shape, not scale.
//
// Accuracy = max(0, correlation) / (1 + normalized mean abs error): a
// perfectly-shaped heuristic scores 1, blind search (h≡0, zero variance →
// zero correlation) scores 0.
func (q *HeuristicQuality) Finalize() {
	n := len(q.Samples)
	if n == 0 {
		return
	}
	depth := 0
	for _, s := range q.Samples {
		if s.TrueRemaining > depth {
			depth = s.TrueRemaining
		}
		if s.H > s.TrueRemaining {
			q.AdmissibilityViolations++
		}
	}
	if depth == 0 {
		depth = 1
	}
	scale := 1.0
	if first := q.Samples[0]; first.H > 0 && first.TrueRemaining > 0 {
		scale = float64(first.TrueRemaining) / float64(first.H)
	}
	var sumErr, sumAbs float64
	var sumH, sumT, sumHH, sumTT, sumHT float64
	for _, s := range q.Samples {
		e := (scale*float64(s.H) - float64(s.TrueRemaining)) / float64(depth)
		sumErr += e
		sumAbs += math.Abs(e)
		h, t := float64(s.H), float64(s.TrueRemaining)
		sumH += h
		sumT += t
		sumHH += h * h
		sumTT += t * t
		sumHT += h * t
	}
	fn := float64(n)
	q.MeanErr = sumErr / fn
	q.MeanAbsErr = sumAbs / fn
	varH := sumHH - sumH*sumH/fn
	varT := sumTT - sumT*sumT/fn
	cov := sumHT - sumH*sumT/fn
	if varH > 0 && varT > 0 {
		q.Correlation = cov / math.Sqrt(varH*varT)
	}
	q.Accuracy = math.Max(0, q.Correlation) / (1 + q.MeanAbsErr)
}

// CacheReport is one cache's (or the successor memo's) hit statistics.
type CacheReport struct {
	Name    string  `json:"name,omitempty"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// NewCacheReport derives the hit rate.
func NewCacheReport(name string, hits, misses int64) CacheReport {
	c := CacheReport{Name: name, Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		c.HitRate = float64(hits) / float64(total)
	}
	return c
}

// EffectiveBranchingFactor solves Σ_{i=1..depth} b^i = examined for b — the
// uniform branching factor whose complete tree of the solution depth holds
// exactly the examined node count (Russell & Norvig's N = b* + b*² + … +
// b*^d). Returns 0 when depth or examined make the equation degenerate.
func EffectiveBranchingFactor(examined, depth int) float64 {
	if depth <= 0 || examined < depth {
		return 0
	}
	if depth == 1 {
		return float64(examined)
	}
	tree := func(b float64) float64 {
		sum, p := 0.0, 1.0
		for i := 0; i < depth; i++ {
			p *= b
			sum += p
		}
		return sum
	}
	lo, hi := 1.0, float64(examined)
	if tree(lo) >= float64(examined) {
		return lo
	}
	for i := 0; i < 100 && hi-lo > 1e-9; i++ {
		mid := (lo + hi) / 2
		if tree(mid) < float64(examined) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ValidateRunReport checks the structural invariants of a report the way
// ValidateBenchReport does for benchmark files: schema identity and count
// sanity.
func ValidateRunReport(r *RunReport) error {
	if r == nil {
		return fmt.Errorf("report: nil report")
	}
	if r.Schema != ReportSchema {
		return fmt.Errorf("report: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.Examined < 0 || r.Generated < 0 || r.Depth < 0 {
		return fmt.Errorf("report: negative counters (examined=%d generated=%d depth=%d)", r.Examined, r.Generated, r.Depth)
	}
	if r.Solved && r.Error != "" {
		return fmt.Errorf("report: solved run carries error %q", r.Error)
	}
	for _, q := range r.HeuristicQuality {
		if q.Kind == "" {
			return fmt.Errorf("report: heuristic quality entry without kind")
		}
		if q.Accuracy < 0 || q.Accuracy > 1 {
			return fmt.Errorf("report: heuristic %s accuracy %g outside [0,1]", q.Kind, q.Accuracy)
		}
	}
	return nil
}

// WriteRunReport writes the report as indented JSON.
func WriteRunReport(w io.Writer, r *RunReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRunReport parses and validates a report.
func ReadRunReport(rd io.Reader) (*RunReport, error) {
	var r RunReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("report: %v", err)
	}
	if err := ValidateRunReport(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReportBuilder is a Tracer that captures the structural skeleton of a run —
// span tree and cache/memo traffic — for report assembly. It records only
// structural events (member/run boundaries) plus four counters for the
// high-frequency cache events, so it is cheap enough to attach to any run.
// Safe for concurrent use.
type ReportBuilder struct {
	mu    sync.Mutex
	start time.Time
	root  *Span
	// open tracks unfinished member/search spans by name, oldest first, so
	// concurrent same-label runs close in start order.
	openMembers  map[string][]*Span
	openSearches map[string][]*Span
	cacheHits    map[string]int64
	cacheMisses  map[string]int64
	memoHits     int64
	memoMisses   int64
}

// NewReportBuilder returns a builder whose root span starts now.
func NewReportBuilder() *ReportBuilder {
	return &ReportBuilder{
		start:        time.Now(),
		root:         &Span{Name: "run", Kind: "run"},
		openMembers:  map[string][]*Span{},
		openSearches: map[string][]*Span{},
		cacheHits:    map[string]int64{},
		cacheMisses:  map[string]int64{},
	}
}

// Event implements Tracer.
func (b *ReportBuilder) Event(e Event) {
	now := time.Since(b.start)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch e.Kind {
	case EvMemberStart:
		s := &Span{Name: e.Label, Kind: "member", StartNS: int64(now)}
		b.root.Children = append(b.root.Children, s)
		b.openMembers[e.Label] = append(b.openMembers[e.Label], s)
	case EvMemberWin, EvMemberLose, EvMemberCancel:
		s := popOpen(b.openMembers, e.Label)
		if s == nil {
			return
		}
		s.DurationNS = int64(now) - s.StartNS
		if e.Elapsed > 0 {
			s.DurationNS = int64(e.Elapsed)
		}
		s.Examined = e.N
		switch e.Kind {
		case EvMemberWin:
			s.Outcome = "win"
		case EvMemberLose:
			s.Outcome = "lose"
			if e.Err != nil {
				s.Error = e.Err.Error()
			}
		case EvMemberCancel:
			s.Outcome = "cancel"
		}
	case EvRunStart:
		s := &Span{Name: e.Label, Kind: "search", StartNS: int64(now)}
		b.root.Children = append(b.root.Children, s)
		b.openSearches[e.Label] = append(b.openSearches[e.Label], s)
	case EvRunFinish:
		s := popOpen(b.openSearches, e.Label)
		if s == nil {
			return
		}
		s.DurationNS = int64(now) - s.StartNS
		if e.Elapsed > 0 {
			s.DurationNS = int64(e.Elapsed)
		}
		s.Examined = e.N
		if e.Goal {
			s.Outcome = "solved"
		} else {
			s.Outcome = "failed"
			if e.Err != nil {
				s.Error = e.Err.Error()
			}
		}
	case EvCacheHit:
		b.cacheHits[e.Label]++
	case EvCacheMiss:
		b.cacheMisses[e.Label]++
	case EvMemoHit:
		b.memoHits++
	case EvMemoMiss:
		b.memoMisses++
	}
}

// popOpen removes and returns the oldest open span under the label.
func popOpen(open map[string][]*Span, label string) *Span {
	spans := open[label]
	if len(spans) == 0 {
		return nil
	}
	s := spans[0]
	if len(spans) == 1 {
		delete(open, label)
	} else {
		open[label] = spans[1:]
	}
	return s
}

// Skeleton seals and returns the builder's contribution to a report: the
// span tree (root duration stamped now) and the cache/memo sections. The builder can keep receiving events afterwards;
// each call re-seals the current state. The returned spans are shared with
// the builder — callers must not mutate them while the run still traces.
func (b *ReportBuilder) Skeleton() (root *Span, caches []CacheReport, memo *CacheReport) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.root.DurationNS = int64(time.Since(b.start))
	names := make([]string, 0, len(b.cacheHits)+len(b.cacheMisses))
	seen := map[string]bool{}
	for n := range b.cacheHits {
		names, seen[n] = append(names, n), true
	}
	for n := range b.cacheMisses {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		caches = append(caches, NewCacheReport(n, b.cacheHits[n], b.cacheMisses[n]))
	}
	if b.memoHits+b.memoMisses > 0 {
		m := NewCacheReport("succmemo", b.memoHits, b.memoMisses)
		memo = &m
	}
	return b.root, caches, memo
}
