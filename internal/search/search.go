// Package search provides the heuristic state-space search algorithms that
// drive mapping discovery in TUPELO ("Data Mapping as Search", §2.3).
//
// The package is generic: a Problem produces successor states and decides
// when a state is a goal, and a Heuristic estimates the remaining distance.
// The paper's two algorithms — Iterative Deepening A* (IDA) and Recursive
// Best-First Search (RBFS), both linear-memory and asymptotically optimal
// relative to A* — are implemented exactly as described in Nilsson (1998)
// and Korf (1985/1993). A* and greedy best-first search are included for
// ablation studies; the paper notes that plain A*'s exponential memory made
// early TUPELO implementations ineffective.
//
// Every algorithm takes a context.Context and checks it once per examined
// state, so cancellation, deadlines, and portfolio-loser teardown all share
// one mechanism. An aborted run returns an *Error wrapping the cause
// (context.Canceled, context.DeadlineExceeded, ErrLimit, ErrNotFound) with
// the statistics accumulated up to the abort.
//
// The performance measure throughout is the number of states examined, the
// same machine-independent metric the paper reports.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"tupelo/internal/obs"
)

// State is a node of the search space. It carries no method: two states are
// the same state exactly when they are ==. A Problem must therefore return
// one comparable value per distinct state — a canonical pointer (TUPELO's
// core hands the search one *dbState per database) or a comparable value
// such as an integer or an array — and never two unequal values for one
// state. IDA*'s and RBFS's current-path check and A*'s bestG map compare
// states with == and nothing else. The search never caches anything by
// state: facts derived from a state (its heuristic value, its moves, its
// goal verdict) are the Problem's and Heuristic's to remember.
type State any

// Move is an edge of the search space: an operator and the successor it
// produces.
type Move struct {
	// Op is the operator that produced the successor; TUPELO stores the L
	// operator itself here. The search renders its text only for EvMove
	// trace events.
	Op fmt.Stringer
	// To is the successor state.
	To State
	// Cost is the edge cost; TUPELO counts each transformation as 1.
	Cost int
}

// Problem defines a search space.
type Problem interface {
	// Start returns the initial state (the source critical instance).
	Start() State
	// Successors expands a state into its outgoing moves. The order must
	// be deterministic.
	Successors(State) ([]Move, error)
	// IsGoal reports whether the state satisfies the goal test (the state
	// contains the target critical instance).
	IsGoal(State) bool
}

// Heuristic estimates the distance from a state to the goal. It must return
// 0 for goal states to keep IDA/RBFS well-behaved (the paper's h(t)=0).
type Heuristic func(State) int

// Limits bounds a search run. Zero values mean unlimited. A wall-clock
// bound is the context's deadline (RunContext).
type Limits struct {
	// MaxStates aborts the search after this many states are examined.
	MaxStates int
	// MaxHeapBytes aborts the search once the process heap (live object
	// bytes, MemStats.HeapAlloc) exceeds this many bytes, failing with an
	// error matching both ErrLimit and ErrMemory. The heap is sampled every
	// heapCheckInterval examined states through a process-wide runtime/metrics
	// sampler (no stop-the-world, unlike runtime.ReadMemStats) whose reading
	// may additionally be up to heapSampleTTL stale, so the abort fires within
	// that many states of the budget being crossed. The budget is
	// process-wide: portfolio members racing in one process share the heap
	// and the first to sample past the budget aborts.
	MaxHeapBytes uint64
	// Cooperative makes the run yield the processor (runtime.Gosched) every
	// 16 examined states. Searches are CPU-bound loops with no natural
	// scheduling points; when several share fewer CPUs — portfolio members
	// racing — a run that gets a CPU first can otherwise hold it for a full
	// async-preemption quantum (~10ms) before its competitors are scheduled
	// at all. The portfolio runner sets this for its members; a solitary
	// search leaves it unset and pays nothing for scheduling points it does
	// not need (pinned by BenchmarkExamine).
	Cooperative bool
	// BestEffort makes an aborted run (budget, deadline, or cancellation)
	// carry the frontier state with the lowest heuristic value seen on
	// Error.Partial, so callers can degrade to an approximate partial
	// mapping instead of failing with nothing. Exhausted searches
	// (ErrNotFound) also carry the partial for diagnostics, but a caller
	// should not present it as an approximation — the search proved no goal
	// is reachable.
	BestEffort bool
}

// Stats reports what a search run did.
type Stats struct {
	// Examined is the number of states examined (goal tests performed) —
	// the paper's performance measure.
	Examined int
	// Generated is the number of successor states produced.
	Generated int
	// MaxFrontier is the peak size of algorithm-managed state: the open
	// list for A* and greedy search, and the deepest search path held
	// (recursion depth) for the linear-memory IDA and RBFS — the quantity
	// their linear-memory guarantee bounds.
	MaxFrontier int
	// Iterations counts IDA depth-bound iterations (0 for other methods).
	Iterations int
	// Depth is the length of the solution path found.
	Depth int
}

// Result is a successful search outcome.
type Result struct {
	// Path is the sequence of moves from the start state to a goal state.
	Path []Move
	// Goal is the goal state reached.
	Goal State
	// Stats describes the run.
	Stats Stats
}

// ErrNotFound reports an exhausted search space without a goal.
var ErrNotFound = errors.New("search: no goal state found")

// ErrLimit reports an aborted search (state or heap budget exhausted).
var ErrLimit = errors.New("search: limit exceeded")

// ErrMemory refines ErrLimit for heap-budget aborts: an error from a run
// stopped by Limits.MaxHeapBytes matches both ErrLimit (it is a budget
// abort) and ErrMemory (it is specifically the memory budget).
var ErrMemory = errors.New("search: memory budget exceeded")

// errStateBudget and errHeapBudget refine ErrLimit so that error text
// states which budget fired; errHeapBudget also matches ErrMemory.
var (
	errStateBudget = fmt.Errorf("%w (state budget exhausted)", ErrLimit)
	errHeapBudget  = fmt.Errorf("%w (%w)", ErrLimit, ErrMemory)
)

// PanicError is a panic recovered inside search-owned code: a portfolio
// member goroutine, a successor expansion, or the discovery call itself.
// The resilience layer converts such panics into ordinary *Error failures so
// that one poisoned heuristic or operator loses its race instead of killing
// the process. Value is the recovered panic value, Stack the stack captured
// at the recovery point, and Origin identifies the recovering site
// ("successor expansion (op ρ_rel[a/b])", "portfolio member RBFS/cosine").
type PanicError struct {
	// Value is the value the code panicked with.
	Value any
	// Stack is the goroutine stack captured by the recover handler.
	Stack []byte
	// Origin identifies the goroutine and site that recovered the panic.
	Origin string
}

// NewPanicError captures the current goroutine's stack into a PanicError.
// Call it directly inside the recover handler so the stack still shows the
// panic site.
func NewPanicError(origin string, value any) *PanicError {
	return &PanicError{Value: value, Stack: debug.Stack(), Origin: origin}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Origin, e.Value)
}

// Partial is the best-effort payload of an aborted run (Limits.BestEffort):
// the frontier state with the lowest heuristic value seen before the abort,
// with the move path that reaches it from the start state.
type Partial struct {
	// Path is the move sequence from the start state to State.
	Path []Move
	// State is the closest-to-goal state seen, by heuristic value.
	State State
	// H is the heuristic value of State under the run's heuristic —
	// comparable only to values from the same heuristic.
	H int
}

// Error is the error type returned by every algorithm in this package: it
// wraps the cause (ErrNotFound, ErrLimit, context.Canceled,
// context.DeadlineExceeded, or a Problem error) together with the partial
// statistics accumulated before the run stopped, so aborted and cancelled
// runs still report their effort. Use errors.As to recover the Stats and
// errors.Is to test the cause.
type Error struct {
	// Err is the underlying cause.
	Err error
	// Stats holds the effort spent up to the failure.
	Stats Stats
	// Partial is the best frontier state seen before the run stopped. It is
	// set only when Limits.BestEffort was enabled and at least one state's
	// heuristic value was observed.
	Partial *Partial
}

// Cause classifies the wrapped error into a small stable vocabulary —
// "panic", "deadline", "canceled", "memory", "limit", "exhausted", or
// "error" — used in the error text and as the metrics label for aborted
// runs. "memory" is checked before "limit" because a heap-budget abort
// matches both sentinels.
func (e *Error) Cause() string {
	var pe *PanicError
	switch {
	case errors.As(e.Err, &pe):
		return "panic"
	case errors.Is(e.Err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(e.Err, context.Canceled):
		return "canceled"
	case errors.Is(e.Err, ErrMemory):
		return "memory"
	case errors.Is(e.Err, ErrLimit):
		return "limit"
	case errors.Is(e.Err, ErrNotFound):
		return "exhausted"
	default:
		return "error"
	}
}

func (e *Error) Error() string {
	return fmt.Sprintf("%v (cause=%s, after %d states examined)", e.Err, e.Cause(), e.Stats.Examined)
}

func (e *Error) Unwrap() error { return e.Err }

// Algorithm selects a search strategy.
type Algorithm int

const (
	// AlgorithmUnset is the zero Algorithm. It is not a strategy of its
	// own: RunContext resolves it to RBFS, the paper's overall best
	// performer, so a zero-valued configuration genuinely means "use the
	// paper's best" instead of silently selecting IDA.
	AlgorithmUnset Algorithm = iota
	// IDA is Iterative Deepening A*: depth-first probes bounded by
	// increasing f-limits. Linear memory. The paper's first algorithm.
	IDA
	// RBFS is Recursive Best-First Search: recursive best-first exploration
	// with backtracking on locally optimal f-values. Linear memory. The
	// paper's second (and generally better-performing) algorithm.
	RBFS
	// AStar is textbook A* with a closed set. Exponential memory; included
	// for ablation (the paper abandoned it for that reason).
	AStar
	// Greedy is greedy best-first search on h alone. Incomplete in general;
	// included for ablation.
	Greedy
)

// Algorithms lists the selectable strategies in the paper's order.
func Algorithms() []Algorithm { return []Algorithm{IDA, RBFS, AStar, Greedy} }

// CLIName returns the lowercase name ParseAlgorithm accepts for a.
func (a Algorithm) CLIName() string {
	if a == AStar {
		return "astar" // String() is the paper's "A*"; flags avoid the shell glob
	}
	return strings.ToLower(a.String())
}

// AlgorithmNames returns the CLI name of every algorithm in presentation
// order. It is the single source of truth behind flag help text and
// ParseAlgorithm's error message, so neither can drift from the parser.
func AlgorithmNames() []string {
	algos := Algorithms()
	out := make([]string, len(algos))
	for i, a := range algos {
		out[i] = a.CLIName()
	}
	return out
}

// ParseAlgorithm resolves a CLI algorithm name ("ida", "rbfs", "astar" or
// "a*", "greedy"), case-insensitively. The error for an unknown name
// enumerates every valid one.
func ParseAlgorithm(s string) (Algorithm, error) {
	name := strings.ToLower(s)
	if name == "a*" {
		return AStar, nil
	}
	for _, a := range Algorithms() {
		if a.CLIName() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("search: unknown algorithm %q (valid: %s)", s, strings.Join(AlgorithmNames(), ", "))
}

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmUnset:
		return "unset"
	case IDA:
		return "IDA"
	case RBFS:
		return "RBFS"
	case AStar:
		return "A*"
	case Greedy:
		return "Greedy"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// RunContext executes the selected algorithm on the problem; it is the
// package's one entry point. The context is checked at every examined
// state; when it is cancelled or its deadline passes, the run stops with an
// *Error wrapping the context's error and carrying the partial Stats.
// AlgorithmUnset resolves to RBFS.
func RunContext(ctx context.Context, a Algorithm, p Problem, h Heuristic, lim Limits) (*Result, error) {
	switch a {
	case IDA:
		return idaStar(ctx, p, h, lim)
	case AlgorithmUnset, RBFS:
		return recursiveBestFirst(ctx, p, h, lim)
	case AStar:
		return bestFirst(ctx, p, h, lim, false)
	case Greedy:
		return bestFirst(ctx, p, h, lim, true)
	default:
		return nil, fmt.Errorf("search: unknown algorithm %d", int(a))
	}
}

const inf = math.MaxInt / 4

// counter enforces Limits and context cancellation, accumulates Stats, and
// feeds the observability layer: per-algorithm examined/generated/yield
// counters resolved once at construction (so the hot path touches only
// atomics), plus run start/finish trace events. A run without metrics or
// tracer in its context pays a nil check per event and nothing else.
type counter struct {
	stats Stats
	lim   Limits
	ctx   context.Context
	algo  string
	label string // the run's name in its flight ring and run events
	o     obs.Obs
	start time.Time

	// best tracks the lowest-h frontier state for best-effort degradation;
	// nil unless Limits.BestEffort is set, so the hot path pays one nil
	// check when the feature is off.
	best *bestSeen

	// ring is this run's flight-recorder ring; nil (Record is a nil check)
	// when the context carries no FlightRecorder. Every algorithm runs on one
	// goroutine, so the counter's ring respects the recorder's single-writer
	// discipline.
	ring *obs.FlightRing

	// Pre-resolved instruments; nil (and therefore no-ops) without metrics.
	mExamined  *obs.Counter
	mGenerated *obs.Counter
	mYields    *obs.Counter
	hGoalTest  *obs.Histogram
	hExpand    *obs.Histogram
}

func newCounter(ctx context.Context, algo string, lim Limits) *counter {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &counter{lim: lim, ctx: ctx, algo: algo, label: algo, o: obs.FromContext(ctx)}
	if c.o.Label != "" {
		c.label = c.o.Label
	}
	if lim.BestEffort {
		c.best = &bestSeen{}
	}
	c.ring = c.o.Flight.Ring(c.label)
	c.ring.Record(obs.EvRunStart, 0, 0, 0)
	if c.o.Enabled() {
		c.start = time.Now()
		if m := c.o.Metrics; m != nil {
			c.mExamined = m.Counter(obs.Name("search.examined", "algo", algo))
			c.mGenerated = m.Counter(obs.Name("search.generated", "algo", algo))
			c.mYields = m.Counter(obs.Name("search.yields", "algo", algo))
			c.hGoalTest = m.Histogram(obs.Name("search.goaltest.seconds", "algo", algo))
			c.hExpand = m.Histogram(obs.Name("search.expand.seconds", "algo", algo))
			m.Counter(obs.Name("search.runs", "algo", algo)).Inc()
		}
		c.o.Tracer().Event(obs.Event{Kind: obs.EvRunStart, Label: c.label})
	}
	return c
}

// examine counts one goal test and reports why the run must stop, if it
// must: budget exhausted or context cancelled (a deadline included). It is
// the single cancellation point shared by every algorithm.
func (c *counter) examine() error {
	c.stats.Examined++
	c.mExamined.Inc()
	if c.lim.MaxStates > 0 && c.stats.Examined > c.lim.MaxStates {
		return errStateBudget
	}
	if c.lim.Cooperative && c.stats.Examined&15 == 0 {
		// Yielding every 16 states bounds the starvation of competing runs
		// (see Limits.Cooperative); with an empty run queue Gosched is
		// nearly free. A solitary run has nothing to yield to and skips
		// the scheduling point entirely.
		c.mYields.Inc()
		runtime.Gosched()
	}
	if err := c.ctx.Err(); err != nil {
		return err
	}
	// The heap is sampled every heapCheckInterval states rather than per
	// state: the sampler is far more expensive than the atomic counting
	// above. The phase is 1, not 0, so the very first examined state still
	// catches an already-blown heap budget.
	if c.lim.MaxHeapBytes > 0 && c.stats.Examined&(heapCheckInterval-1) == 1 && heapLiveBytes() > c.lim.MaxHeapBytes {
		return errHeapBudget
	}
	return nil
}

// heapCheckInterval is how often (in examined states) examine samples the
// heap. Must be a power of two. A memory abort can therefore overshoot its
// budget by up to heapCheckInterval-1 states.
const heapCheckInterval = 64

// bestSeen tracks the frontier state with the lowest heuristic value
// observed during a run, for best-effort degradation. The algorithms offer
// every state whose h they compute; the path is materialized lazily (the
// callback is invoked only when the candidate improves on the best already
// seen) because IDA and RBFS mutate their path slice in place. A run's
// tracker is touched only by the run's own goroutine.
type bestSeen struct {
	set  bool
	h    int
	s    State
	path []Move
}

// offer records s as the best-effort candidate if its heuristic value beats
// the current best. Ties keep the earlier state, so the result is
// deterministic for a deterministic search order.
func (b *bestSeen) offer(s State, h int, path func() []Move) {
	if b.set && h >= b.h {
		return
	}
	b.set, b.h, b.s, b.path = true, h, s, path()
}

// take returns the best candidate seen, or nil if none was offered.
func (b *bestSeen) take() *Partial {
	if !b.set {
		return nil
	}
	return &Partial{Path: b.path, State: b.s, H: b.h}
}

// candidate offers a state with a known heuristic value as a best-effort
// result. pathFn must return a caller-owned copy of the path from the start
// state to s; it is invoked only when s improves on the best seen so far.
// No-op unless Limits.BestEffort is set.
func (c *counter) candidate(s State, h int, pathFn func() []Move) {
	if c.best == nil {
		return
	}
	c.best.offer(s, h, pathFn)
}

// generated records n successor states produced by one expansion.
func (c *counter) generated(n int) {
	c.stats.Generated += n
	c.mGenerated.Add(int64(n))
}

// isGoal runs the goal test at search depth g, timing it into the
// per-algorithm goal-test latency histogram and emitting the per-state
// trace event. Seq is the examined ordinal — examine() has already counted
// this state, so the event numbering matches Stats.Examined exactly. An
// un-instrumented run takes the first branch and pays one bool check.
func (c *counter) isGoal(p Problem, s State, g int) bool {
	if !c.o.Enabled() {
		goal := p.IsGoal(s)
		c.ring.Record(obs.EvGoalTest, uint32(c.stats.Examined), int32(g), flightBool(goal))
		return goal
	}
	start := time.Now()
	goal := p.IsGoal(s)
	c.hGoalTest.Observe(time.Since(start))
	c.ring.Record(obs.EvGoalTest, uint32(c.stats.Examined), int32(g), flightBool(goal))
	c.o.Tracer().Event(obs.Event{Kind: obs.EvGoalTest, Seq: c.stats.Examined, Depth: g, Goal: goal})
	return goal
}

// flightBool encodes a bool into a flight-record payload field.
func flightBool(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// expand produces the successors of s at search depth g, timing the
// expansion into the per-algorithm latency histogram, counting the states
// generated, and emitting the expand and per-move trace events.
func (c *counter) expand(p Problem, s State, g int) ([]Move, error) {
	if !c.o.Enabled() {
		moves, err := p.Successors(s)
		if err != nil {
			return nil, err
		}
		c.generated(len(moves))
		c.ring.Record(obs.EvExpand, uint32(c.stats.Examined), int32(g), int32(len(moves)))
		return moves, nil
	}
	start := time.Now()
	moves, err := p.Successors(s)
	elapsed := time.Since(start)
	c.hExpand.Observe(elapsed)
	tr := c.o.Tracer()
	if err != nil {
		tr.Event(obs.Event{Kind: obs.EvExpand, Seq: c.stats.Examined, Depth: g, Err: err, Elapsed: elapsed})
		return nil, err
	}
	c.generated(len(moves))
	c.ring.Record(obs.EvExpand, uint32(c.stats.Examined), int32(g), int32(len(moves)))
	tr.Event(obs.Event{Kind: obs.EvExpand, Seq: c.stats.Examined, Depth: g, N: len(moves), Elapsed: elapsed})
	if c.o.Trace != nil {
		// Operator text is rendered only for an attached tracer.
		for _, m := range moves {
			tr.Event(obs.Event{Kind: obs.EvMove, Label: m.Op.String(), Depth: g})
		}
	}
	return moves, nil
}

// frontier raises the peak algorithm-managed state size: open-list length
// for the best-first searches, recursion (path) depth for IDA/RBFS.
func (c *counter) frontier(n int) {
	if n > c.stats.MaxFrontier {
		c.stats.MaxFrontier = n
	}
}

// fail wraps err with the partial statistics of the run so far — plus the
// best-effort candidate state under Limits.BestEffort — counts the abort
// under its cause ("deadline", "canceled", "limit", ...), and emits the
// run-finish event.
func (c *counter) fail(err error) error {
	e := &Error{Err: err, Stats: c.stats}
	if c.best != nil {
		e.Partial = c.best.take()
	}
	cause := e.Cause()
	c.ring.Record(obs.EvRunFinish, uint32(c.stats.Examined), obs.CauseCode(cause), 0)
	switch cause {
	case "panic", "memory", "deadline":
		// The run died rather than merely losing a race or exhausting its
		// space: mark the flight recorder for an automatic dump. Only the
		// mark happens here (racing portfolio members may still be
		// recording); the caller flushes once every run has returned.
		c.o.Flight.RequestDump(cause)
	}
	if c.o.Enabled() {
		if m := c.o.Metrics; m != nil {
			m.Counter(obs.Name("search.aborts", "algo", c.algo, "cause", e.Cause())).Inc()
		}
		c.o.Tracer().Event(obs.Event{
			Kind: obs.EvRunFinish, Label: c.label,
			N: c.stats.Examined, Err: err, Elapsed: time.Since(c.start),
		})
	}
	return e
}

// finish stamps the final statistics on a successful result and emits the
// run-finish event.
func (c *counter) finish(res *Result) *Result {
	res.Stats = c.stats
	res.Stats.Depth = len(res.Path)
	c.ring.Record(obs.EvRunFinish, uint32(res.Stats.Examined), 0, int32(res.Stats.Depth))
	if c.o.Enabled() {
		c.o.Tracer().Event(obs.Event{
			Kind: obs.EvRunFinish, Label: c.label, Goal: true,
			N: res.Stats.Examined, Elapsed: time.Since(c.start),
		})
	}
	return res
}
