package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file defines the run report — the per-run forensic artifact of the
// forensics layer: a stable `tupelo-report/v1` JSON document assembling a
// span tree (run → portfolio member → search) with per-span timings, plus
// derived analytics answering the paper's central question of *why* a
// heuristic examined the states it did: the heuristic-quality profile (h(s)
// against true remaining cost along the found solution path), the effective
// branching factor, cache and memo hit rates, the abort cause, and a
// performance profile (work per depth and per operator family, and a
// throughput timeline). The obs package owns the schema, the analytics math
// and the one live aggregator, ReportBuilder; the core package assembles
// reports (it knows heuristics and solution paths), and cmd/tupelo-trace
// renders them.

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
	Examined    int `json:"examined"`
	Generated   int `json:"generated"`
	MaxFrontier int `json:"max_frontier,omitempty"`
	Iterations  int `json:"iterations,omitempty"`
	Depth       int `json:"depth,omitempty"`

	// DurationNS is the run's wall time: the root span's duration, stamped
	// by ReportBuilder.Fill; 0 for a report built without a builder.
	DurationNS int64 `json:"duration_ns,omitempty"`

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

	// Perf is the performance profile; nil when no ReportBuilder saw the
	// run examine or expand a state.
	Perf *RunProfile `json:"profile,omitempty"`
}

// RunProfile aggregates a run's event stream: expansions and moves per
// search depth, operator applications per family, a timeline of throughput
// and hit rates, and a log of the first expansions for trace viewers.
// Offsets share the span tree's clock.
type RunProfile struct {
	Expansions int64 `json:"expansions"`
	ExpandNS   int64 `json:"expand_ns"`
	// Moves sums the move counts of the expansions.
	Moves int64 `json:"moves"`
	// Depths holds one row per expanded search depth, ascending.
	Depths []DepthProfile `json:"depths,omitempty"`
	// Ops is keyed by operator family, the rendered move's prefix before
	// its argument bracket ("rename_att").
	Ops map[string]OpProfile `json:"ops,omitempty"`
	// Stride is the number of examined states between checkpoints.
	Stride   int64               `json:"stride"`
	Timeline []ProfileCheckpoint `json:"timeline,omitempty"`
	// Slices logs the first maxSlices expansions; SlicesDropped counts the
	// expansions past the cap.
	Slices        []ExpandSlice `json:"slices,omitempty"`
	SlicesDropped int64         `json:"slices_dropped,omitempty"`
}

// DepthProfile is the expansion work at one search depth.
type DepthProfile struct {
	Depth      int   `json:"depth"`
	Expansions int64 `json:"expansions"`
	Moves      int64 `json:"moves"`
}

// ProfileCheckpoint is one point of the run timeline: cumulative counts at
// OffsetNS nanoseconds after the root span started.
type ProfileCheckpoint struct {
	OffsetNS    int64 `json:"offset_ns"`
	Examined    int64 `json:"examined"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
}

// OpProfile aggregates one operator family: how many applications were
// proposed, how many yielded a successor, and the apply latency they cost.
type OpProfile struct {
	Proposed     int64 `json:"proposed"`
	Applied      int64 `json:"applied"`
	ApplyTotalNS int64 `json:"apply_total_ns"`
	ApplyMaxNS   int64 `json:"apply_max_ns"`
}

// ExpandSlice is one logged expansion: its start offset and duration.
type ExpandSlice struct {
	OffsetNS int64 `json:"offset_ns"`
	DurNS    int64 `json:"dur_ns"`
	Depth    int   `json:"depth"`
	Moves    int   `json:"moves"`
}

const (
	// maxCheckpoints bounds the timeline: when full, every other
	// checkpoint is dropped and the recording stride doubles, so an
	// arbitrarily long run keeps a fixed-size, evenly spaced timeline.
	maxCheckpoints = 512
	// maxSlices bounds the expansion log.
	maxSlices = 4096
)

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

// ReportBuilder is the Tracer that aggregates a run's event stream into
// its report: the span tree, cache and memo traffic, and the performance
// profile. One mutex serializes Event, so portfolio members can share a
// builder, and the clock is read only for events that land on the span
// tree, the timeline or the expansion log.
type ReportBuilder struct {
	mu    sync.Mutex
	now   func() time.Time
	start time.Time
	root  *Span
	// open tracks unfinished member/search spans by name, oldest first, so
	// concurrent same-label runs close in start order.
	openMembers  map[string][]*Span
	openSearches map[string][]*Span
	cacheHits    map[string]int64
	cacheMisses  map[string]int64

	// Totals over every label, for the timeline.
	hits, misses         int64
	memoHits, memoMisses int64

	examined   int64
	expansions int64
	expandNS   int64
	moves      int64
	depths     []DepthProfile // indexed by depth
	ops        map[string]*OpProfile

	stride        int64
	timeline      []ProfileCheckpoint
	slices        []ExpandSlice
	slicesDropped int64
}

// NewReportBuilder returns a builder whose root span starts now.
func NewReportBuilder() *ReportBuilder {
	return newReportBuilder(time.Now)
}

func newReportBuilder(now func() time.Time) *ReportBuilder {
	return &ReportBuilder{
		now:          now,
		start:        now(),
		root:         &Span{Name: "run", Kind: "run"},
		openMembers:  map[string][]*Span{},
		openSearches: map[string][]*Span{},
		cacheHits:    map[string]int64{},
		cacheMisses:  map[string]int64{},
		ops:          map[string]*OpProfile{},
		stride:       1,
	}
}

// offset is the builder's clock: nanoseconds since the root span started.
// Callers hold b.mu.
func (b *ReportBuilder) offset() int64 { return int64(b.now().Sub(b.start)) }

// Event implements Tracer.
func (b *ReportBuilder) Event(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch e.Kind {
	case EvMemberStart:
		s := &Span{Name: e.Label, Kind: "member", StartNS: b.offset()}
		b.root.Children = append(b.root.Children, s)
		b.openMembers[e.Label] = append(b.openMembers[e.Label], s)
	case EvMemberWin, EvMemberLose, EvMemberCancel:
		s := popOpen(b.openMembers, e.Label)
		if s == nil {
			return
		}
		b.finishSpan(s, e)
		switch e.Kind {
		case EvMemberWin:
			s.Outcome = "win"
		case EvMemberLose:
			s.Outcome = "lose"
		case EvMemberCancel:
			s.Outcome = "cancel"
		}
	case EvRunStart:
		s := &Span{Name: e.Label, Kind: "search", StartNS: b.offset()}
		parent := b.memberFor(e.Label)
		parent.Children = append(parent.Children, s)
		b.openSearches[e.Label] = append(b.openSearches[e.Label], s)
	case EvRunFinish:
		s := popOpen(b.openSearches, e.Label)
		if s == nil {
			return
		}
		b.finishSpan(s, e)
		s.Outcome = "failed"
		if e.Goal {
			s.Outcome = "solved"
		}
	case EvGoalTest:
		b.examined++
		if b.examined%b.stride == 0 {
			b.checkpoint()
		}
	case EvExpand:
		b.expansions++
		b.expandNS += int64(e.Elapsed)
		b.moves += int64(e.N)
		for len(b.depths) <= e.Depth {
			b.depths = append(b.depths, DepthProfile{Depth: len(b.depths)})
		}
		b.depths[e.Depth].Expansions++
		b.depths[e.Depth].Moves += int64(e.N)
		if len(b.slices) < maxSlices {
			start := max(b.offset()-int64(e.Elapsed), 0)
			b.slices = append(b.slices, ExpandSlice{OffsetNS: start, DurNS: int64(e.Elapsed), Depth: e.Depth, Moves: e.N})
		} else {
			b.slicesDropped++
		}
	case EvOpApply:
		family := e.Label
		if i := strings.IndexByte(family, '['); i >= 0 {
			family = family[:i]
		}
		op := b.ops[family]
		if op == nil {
			op = &OpProfile{}
			b.ops[family] = op
		}
		op.Proposed++
		if e.Goal {
			op.Applied++
		}
		op.ApplyTotalNS += int64(e.Elapsed)
		op.ApplyMaxNS = max(op.ApplyMaxNS, int64(e.Elapsed))
	case EvCacheHit:
		b.cacheHits[e.Label]++
		b.hits++
	case EvCacheMiss:
		b.cacheMisses[e.Label]++
		b.misses++
	case EvMemoHit:
		b.memoHits++
	case EvMemoMiss:
		b.memoMisses++
	}
}

// finishSpan stamps a finished span's duration (the event's own Elapsed
// when it carries one), examined count and error. Callers hold b.mu.
func (b *ReportBuilder) finishSpan(s *Span, e Event) {
	s.DurationNS = b.offset() - s.StartNS
	if e.Elapsed > 0 {
		s.DurationNS = int64(e.Elapsed)
	}
	s.Examined = e.N
	if e.Err != nil {
		s.Error = e.Err.Error()
	}
}

// memberFor returns the span a search labelled label nests under: the
// oldest open portfolio member of that label not already running a search,
// or the root for a discovery outside a portfolio. Callers hold b.mu.
func (b *ReportBuilder) memberFor(label string) *Span {
	for _, m := range b.openMembers[label] {
		if n := len(m.Children); n == 0 || m.Children[n-1].Outcome != "" {
			return m
		}
	}
	return b.root
}

// checkpoint records one timeline point. Callers hold b.mu.
func (b *ReportBuilder) checkpoint() {
	b.timeline = append(b.timeline, ProfileCheckpoint{
		OffsetNS:    b.offset(),
		Examined:    b.examined,
		CacheHits:   b.hits,
		CacheMisses: b.misses,
		MemoHits:    b.memoHits,
		MemoMisses:  b.memoMisses,
	})
	if len(b.timeline) < maxCheckpoints {
		return
	}
	keep := b.timeline[:0]
	for i := 1; i < len(b.timeline); i += 2 {
		keep = append(keep, b.timeline[i])
	}
	b.timeline = keep
	b.stride *= 2
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

// Fill seals the builder's contribution into r: the span tree (root
// duration stamped now, and copied to r.DurationNS), the cache and memo
// sections, and the profile. The
// builder can keep receiving events afterwards; each call re-seals the
// current state. The spans are shared with the builder — callers must not
// mutate them while the run still traces.
func (b *ReportBuilder) Fill(r *RunReport) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.root.DurationNS = b.offset()
	r.Span, r.DurationNS = b.root, b.root.DurationNS
	names := make([]string, 0, len(b.cacheHits)+len(b.cacheMisses))
	for n := range b.cacheHits {
		names = append(names, n)
	}
	for n := range b.cacheMisses {
		if _, seen := b.cacheHits[n]; !seen {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	r.Caches = nil
	for _, n := range names {
		r.Caches = append(r.Caches, NewCacheReport(n, b.cacheHits[n], b.cacheMisses[n]))
	}
	if b.memoHits+b.memoMisses > 0 {
		m := NewCacheReport("succmemo", b.memoHits, b.memoMisses)
		r.Memo = &m
	}
	if b.examined == 0 && b.expansions == 0 {
		return
	}
	p := &RunProfile{
		Expansions:    b.expansions,
		ExpandNS:      b.expandNS,
		Moves:         b.moves,
		Stride:        b.stride,
		Timeline:      append([]ProfileCheckpoint(nil), b.timeline...),
		Slices:        append([]ExpandSlice(nil), b.slices...),
		SlicesDropped: b.slicesDropped,
	}
	for _, d := range b.depths {
		if d.Expansions > 0 {
			p.Depths = append(p.Depths, d)
		}
	}
	if len(b.ops) > 0 {
		p.Ops = make(map[string]OpProfile, len(b.ops))
		for k, op := range b.ops {
			p.Ops[k] = *op
		}
	}
	r.Perf = p
}
