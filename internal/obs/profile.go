package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// profMaxCheckpoints bounds the states/sec timeline: when full, every
	// other checkpoint is dropped and the recording stride doubles, so an
	// arbitrarily long run keeps a fixed-size, evenly spaced timeline.
	profMaxCheckpoints = 512
	// profMaxSlices bounds the per-expansion slice log for the Chrome trace
	// export; expansions past the cap are counted but not stored.
	profMaxSlices = 4096
)

// ProfileCheckpoint is one point of the run timeline: cumulative counts at
// OffsetNS nanoseconds after the first event.
type ProfileCheckpoint struct {
	OffsetNS    int64 `json:"offset_ns"`
	Examined    int64 `json:"examined"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
}

// OpProfile aggregates one operator kind: how many applications were
// proposed, how many yielded a successor, and the apply latency they cost.
type OpProfile struct {
	Proposed     int64 `json:"proposed"`
	Applied      int64 `json:"applied"`
	ApplyTotalNS int64 `json:"apply_total_ns"`
	ApplyMaxNS   int64 `json:"apply_max_ns"`
}

// profSlice is one recorded expansion, for the Chrome trace export.
type profSlice struct {
	offsetNS int64
	durNS    int64
	depth    int
	moves    int
}

// Profile is a Tracer that aggregates the event stream of one run (or one
// portfolio race) into a per-run profile: per-depth expansion counts,
// per-operator proposed/applied move latencies, a states/sec timeline, and
// cache hit-rate over time. Render it with WriteReport (text) or
// WriteChromeTrace (trace_event JSON, loadable in Perfetto or
// chrome://tracing). A single mutex serializes Event, so a Profile is safe
// to share across portfolio members.
//
// Wall-clock offsets are stamped at event arrival; the clock starts at the
// first event seen.
type Profile struct {
	mu  sync.Mutex
	now func() time.Time // test hook; nil means time.Now

	label   string
	started bool
	start   time.Time
	runs    int
	solved  bool
	lastErr error
	elapsed time.Duration // longest EvRunFinish.Elapsed seen

	examined    int64
	goals       int64
	expansions  int64
	expandNS    int64
	moves       int64
	cacheHits   int64
	cacheMisses int64
	memoHits    int64
	memoMisses  int64

	depthExpand map[int]int64
	depthMoves  map[int]int64
	ops         map[string]*OpProfile

	stride      int64
	checkpoints []ProfileCheckpoint

	slices        []profSlice
	slicesDropped int64
}

// NewProfile returns an empty Profile ready to use as Options.Tracer.
func NewProfile() *Profile {
	return &Profile{
		depthExpand: make(map[int]int64),
		depthMoves:  make(map[int]int64),
		ops:         make(map[string]*OpProfile),
		stride:      1,
	}
}

// opKindOf extracts the operator family from a rendered move, the prefix
// before the argument bracket: "rename_att[Emp,nm->Name]" -> "rename_att".
func opKindOf(label string) string {
	if i := strings.IndexByte(label, '['); i >= 0 {
		return label[:i]
	}
	return label
}

// Event implements Tracer.
func (p *Profile) Event(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now
	if p.now != nil {
		now = p.now
	}
	at := now()
	if !p.started {
		p.started = true
		p.start = at
	}
	offset := at.Sub(p.start)

	switch e.Kind {
	case EvRunStart:
		p.runs++
		if p.label == "" {
			p.label = e.Label
		} else if p.label != e.Label {
			p.label = "portfolio"
		}
	case EvRunFinish:
		if e.Goal {
			p.solved = true
		} else if e.Err != nil {
			p.lastErr = e.Err
		}
		if e.Elapsed > p.elapsed {
			p.elapsed = e.Elapsed
		}
	case EvGoalTest:
		p.examined++
		if e.Goal {
			p.goals++
		}
		if p.examined%p.stride == 0 {
			p.checkpoint(offset)
		}
	case EvExpand:
		p.expansions++
		p.expandNS += int64(e.Elapsed)
		p.depthExpand[e.Depth]++
		p.depthMoves[e.Depth] += int64(e.N)
		if len(p.slices) < profMaxSlices {
			start := offset - e.Elapsed
			if start < 0 {
				start = 0
			}
			p.slices = append(p.slices, profSlice{
				offsetNS: int64(start),
				durNS:    int64(e.Elapsed),
				depth:    e.Depth,
				moves:    e.N,
			})
		} else {
			p.slicesDropped++
		}
	case EvMove:
		p.moves++
	case EvOpApply:
		op := p.ops[opKindOf(e.Label)]
		if op == nil {
			op = &OpProfile{}
			p.ops[opKindOf(e.Label)] = op
		}
		op.Proposed++
		if e.Goal {
			op.Applied++
		}
		op.ApplyTotalNS += int64(e.Elapsed)
		if int64(e.Elapsed) > op.ApplyMaxNS {
			op.ApplyMaxNS = int64(e.Elapsed)
		}
	case EvCacheHit:
		p.cacheHits++
	case EvCacheMiss:
		p.cacheMisses++
	case EvMemoHit:
		p.memoHits++
	case EvMemoMiss:
		p.memoMisses++
	}
}

// checkpoint records one timeline point; callers hold p.mu.
func (p *Profile) checkpoint(offset time.Duration) {
	p.checkpoints = append(p.checkpoints, ProfileCheckpoint{
		OffsetNS:    int64(offset),
		Examined:    p.examined,
		CacheHits:   p.cacheHits,
		CacheMisses: p.cacheMisses,
		MemoHits:    p.memoHits,
		MemoMisses:  p.memoMisses,
	})
	if len(p.checkpoints) < profMaxCheckpoints {
		return
	}
	keep := p.checkpoints[:0]
	for i := 1; i < len(p.checkpoints); i += 2 {
		keep = append(keep, p.checkpoints[i])
	}
	p.checkpoints = keep
	p.stride *= 2
}

// Elapsed returns the profiled wall-clock span: the longest run duration
// reported on EvRunFinish, or the span between first and last checkpoint
// when no run finished.
func (p *Profile) Elapsed() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.elapsedLocked()
}

func (p *Profile) elapsedLocked() time.Duration {
	if p.elapsed > 0 {
		return p.elapsed
	}
	if n := len(p.checkpoints); n > 0 {
		return time.Duration(p.checkpoints[n-1].OffsetNS)
	}
	return 0
}

// WriteReport renders the profile as a human-readable text report.
func (p *Profile) WriteReport(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder

	label := p.label
	if label == "" {
		label = "(no events)"
	}
	elapsed := p.elapsedLocked()
	outcome := "unsolved"
	switch {
	case p.solved:
		outcome = "solved"
	case p.lastErr != nil:
		outcome = fmt.Sprintf("failed: %v", p.lastErr)
	}
	fmt.Fprintf(&b, "profile: %s — %s, %d states examined", label, outcome, p.examined)
	if elapsed > 0 {
		fmt.Fprintf(&b, " in %s (%.0f states/sec)", elapsed, float64(p.examined)/elapsed.Seconds())
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "expansions: %d (total %s); moves offered: %d\n",
		p.expansions, time.Duration(p.expandNS), p.moves)
	if p.cacheHits+p.cacheMisses > 0 {
		fmt.Fprintf(&b, "heuristic cache: %d hits / %d misses (%.1f%% hit rate)\n",
			p.cacheHits, p.cacheMisses,
			100*float64(p.cacheHits)/float64(p.cacheHits+p.cacheMisses))
	}
	if p.memoHits+p.memoMisses > 0 {
		fmt.Fprintf(&b, "successor memo: %d hits / %d misses (%.1f%% hit rate); operator table samples misses only\n",
			p.memoHits, p.memoMisses,
			100*float64(p.memoHits)/float64(p.memoHits+p.memoMisses))
	}

	if len(p.depthExpand) > 0 {
		depths := make([]int, 0, len(p.depthExpand))
		for d := range p.depthExpand {
			depths = append(depths, d)
		}
		sort.Ints(depths)
		fmt.Fprintf(&b, "%-6s %11s %8s\n", "depth", "expansions", "moves")
		for _, d := range depths {
			fmt.Fprintf(&b, "%-6d %11d %8d\n", d, p.depthExpand[d], p.depthMoves[d])
		}
	}

	if len(p.ops) > 0 {
		kinds := make([]string, 0, len(p.ops))
		for k := range p.ops {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(&b, "%-14s %9s %8s %12s %10s\n", "operator", "proposed", "applied", "apply total", "apply max")
		for _, k := range kinds {
			op := p.ops[k]
			fmt.Fprintf(&b, "%-14s %9d %8d %12s %10s\n",
				k, op.Proposed, op.Applied,
				time.Duration(op.ApplyTotalNS), time.Duration(op.ApplyMaxNS))
		}
	}

	if len(p.checkpoints) > 1 {
		fmt.Fprintf(&b, "timeline (%d checkpoints, stride %d states):\n", len(p.checkpoints), p.stride)
		// Render at most 10 evenly spaced rows so long runs stay readable.
		step := (len(p.checkpoints) + 9) / 10
		prev := ProfileCheckpoint{}
		for i := 0; i < len(p.checkpoints); i += step {
			c := p.checkpoints[i]
			dt := time.Duration(c.OffsetNS - prev.OffsetNS)
			rate := 0.0
			if dt > 0 {
				rate = float64(c.Examined-prev.Examined) / dt.Seconds()
			}
			hitRate := 0.0
			if n := c.CacheHits + c.CacheMisses; n > 0 {
				hitRate = 100 * float64(c.CacheHits) / float64(n)
			}
			fmt.Fprintf(&b, "  +%-12s %8d states %10.0f states/sec %6.1f%% cache hits",
				time.Duration(c.OffsetNS), c.Examined, rate, hitRate)
			if n := c.MemoHits + c.MemoMisses; n > 0 {
				fmt.Fprintf(&b, " %6.1f%% memo hits", 100*float64(c.MemoHits)/float64(n))
			}
			b.WriteByte('\n')
			prev = c
		}
	}
	if p.slicesDropped > 0 {
		fmt.Fprintf(&b, "(%d expansion slices beyond the first %d not recorded)\n", p.slicesDropped, profMaxSlices)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// chromeEvent is one record of the Chrome trace_event format ("JSON array
// format"): ph "M" metadata, "X" complete slices with ts/dur, "C" counters.
// Timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func chromeUS(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace exports the profile in the Chrome trace_event JSON array
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one
// slice per recorded expansion (named by depth, move count in args), counter
// tracks for states examined, states/sec, and cache hit-rate, and a
// run-spanning slice for orientation.
func (p *Profile) WriteChromeTrace(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()

	label := p.label
	if label == "" {
		label = "tupelo"
	}
	events := make([]chromeEvent, 0, 3+len(p.slices)+3*len(p.checkpoints))
	events = append(events,
		chromeEvent{Name: "process_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "tupelo"}},
		chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "search " + label}},
	)
	if elapsed := p.elapsedLocked(); elapsed > 0 {
		events = append(events, chromeEvent{
			Name: "run " + label, Ph: "X", PID: 1, TID: 1,
			TS: 0, Dur: chromeUS(int64(elapsed)),
			Args: map[string]any{"examined": p.examined, "solved": p.solved},
		})
	}
	for _, s := range p.slices {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("expand depth=%d", s.depth), Ph: "X", PID: 1, TID: 2,
			TS: chromeUS(s.offsetNS), Dur: chromeUS(s.durNS),
			Args: map[string]any{"depth": s.depth, "moves": s.moves},
		})
	}
	prev := ProfileCheckpoint{}
	for _, c := range p.checkpoints {
		ts := chromeUS(c.OffsetNS)
		events = append(events, chromeEvent{
			Name: "states examined", Ph: "C", PID: 1, TID: 1, TS: ts,
			Args: map[string]any{"states": c.Examined},
		})
		if dt := c.OffsetNS - prev.OffsetNS; dt > 0 {
			events = append(events, chromeEvent{
				Name: "states/sec", Ph: "C", PID: 1, TID: 1, TS: ts,
				Args: map[string]any{"rate": float64(c.Examined-prev.Examined) / (float64(dt) / 1e9)},
			})
		}
		if n := c.CacheHits + c.CacheMisses; n > 0 {
			events = append(events, chromeEvent{
				Name: "cache hit rate", Ph: "C", PID: 1, TID: 1, TS: ts,
				Args: map[string]any{"percent": 100 * float64(c.CacheHits) / float64(n)},
			})
		}
		if n := c.MemoHits + c.MemoMisses; n > 0 {
			events = append(events, chromeEvent{
				Name: "memo hit rate", Ph: "C", PID: 1, TID: 1, TS: ts,
				Args: map[string]any{"percent": 100 * float64(c.MemoHits) / float64(n)},
			})
		}
		prev = c
	}

	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
