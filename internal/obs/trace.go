package obs

import (
	"fmt"
	"sync"
	"time"
)

// EventKind classifies a trace event. Flight rings record the four search
// kinds EvRunStart, EvGoalTest, EvExpand and EvRunFinish in the same
// vocabulary (see FlightEvent).
type EventKind uint8

const (
	// EvRunStart marks the start of one search run; Label is the run's
	// label: the portfolio member's configuration, or else the algorithm.
	EvRunStart EventKind = iota + 1
	// EvRunFinish marks the end of one search run; Goal reports success, N
	// the states examined, Err the failure cause.
	EvRunFinish
	// EvGoalTest is one examined state; Seq numbers it, Goal reports the
	// outcome of the containment test.
	EvGoalTest
	// EvExpand is one successor expansion; N is the number of moves.
	EvExpand
	// EvMove is one candidate move of an expansion; Label is the operator.
	EvMove
	// EvCacheHit is a heuristic-estimate lookup that found the state's
	// estimate already computed; Label names the (heuristic, k).
	EvCacheHit
	// EvCacheMiss is a heuristic-estimate lookup that had to evaluate;
	// Label names the (heuristic, k).
	EvCacheMiss
	// EvMemberStart marks one portfolio member entering the race; Label is
	// the resolved member configuration.
	EvMemberStart
	// EvMemberWin marks the winning portfolio member; N is its states
	// examined, Elapsed its wall-clock time.
	EvMemberWin
	// EvMemberLose marks a member that failed on its own (budget, no
	// mapping); Err is its failure.
	EvMemberLose
	// EvMemberCancel marks a member stopped because another member won (or
	// the caller cancelled the race).
	EvMemberCancel
	// EvOpApply is one candidate-operator application during a successor
	// expansion; Label is the operator, Goal reports whether it yielded a
	// state-changing successor (a move, counted in core.ops.applied; false
	// when the operator failed or left the state unchanged), Elapsed the
	// apply duration. Like the cache events it is high-frequency.
	EvOpApply
	// EvPanic is a panic recovered inside search-owned code — a portfolio
	// member, a successor expansion, or the discovery call itself; Label is
	// the recovering site's identity and Err the
	// *search.PanicError carrying the captured stack. Structural: at most a
	// handful per run.
	EvPanic
	// EvMemoHit is a successor-memo hit: an expansion answered from the
	// memoized move list without re-applying any operator. High-frequency
	// (one per memoized expansion); it exists so a report can tell
	// "operators are cheap" apart from "operators were never run" —
	// per-operator apply metrics sample only memo misses.
	EvMemoHit
	// EvMemoMiss is a successor-memo miss: the expansion ran the operator
	// pipeline and memoized its move list.
	EvMemoMiss
)

// String names the kind: the "kind" field of an EventRecord.
func (k EventKind) String() string {
	switch k {
	case EvRunStart:
		return "run-start"
	case EvRunFinish:
		return "run-finish"
	case EvGoalTest:
		return "goal-test"
	case EvExpand:
		return "expand"
	case EvMove:
		return "move"
	case EvCacheHit:
		return "cache-hit"
	case EvCacheMiss:
		return "cache-miss"
	case EvMemberStart:
		return "member-start"
	case EvMemberWin:
		return "member-win"
	case EvMemberLose:
		return "member-lose"
	case EvMemberCancel:
		return "member-cancel"
	case EvOpApply:
		return "op-apply"
	case EvPanic:
		return "panic"
	case EvMemoHit:
		return "memo-hit"
	case EvMemoMiss:
		return "memo-miss"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one structured trace record. Fields are reused across kinds to
// keep the struct small and allocation-free on the emitting path; the kind
// documentation states which fields are meaningful.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Label is the event subject: algorithm, operator, cache, or member
	// configuration, depending on Kind.
	Label string
	// Seq is the examined-state ordinal for goal tests and expansions.
	Seq int
	// N is a count: moves generated, states examined, members racing.
	N int
	// Depth is the search depth (g) of the state on goal tests, expansions,
	// and moves.
	Depth int
	// Goal marks a successful goal test, run, or winning member.
	Goal bool
	// Err is the failure cause on EvRunFinish and EvMemberLose.
	Err error
	// Elapsed is the wall-clock duration on finish events.
	Elapsed time.Duration
}

// Tracer receives structured search events. Implementations must be safe
// for concurrent use: portfolio members and concurrent server jobs emit
// from their own goroutines.
type Tracer interface {
	Event(Event)
}

// nopTracer discards events.
type nopTracer struct{}

func (nopTracer) Event(Event) {}

// Nop is the no-op Tracer: the default wherever no tracer is configured.
var Nop Tracer = nopTracer{}

// Collector is a race-safe Tracer that records every event in order of
// arrival: the in-memory fake that tests attach to read the event stream.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Event implements Tracer.
func (c *Collector) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded stream.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Count returns the number of recorded events of the given kinds (all
// events when no kind is given).
func (c *Collector) Count(kinds ...EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(kinds) == 0 {
		return len(c.events)
	}
	n := 0
	for _, e := range c.events {
		for _, k := range kinds {
			if e.Kind == k {
				n++
				break
			}
		}
	}
	return n
}

// MultiTracer fans events out to several tracers.
func MultiTracer(tracers ...Tracer) Tracer {
	live := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil && t != Nop {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}
