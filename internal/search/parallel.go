package search

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tupelo/internal/obs"
)

// This file implements hash-distributed parallel search (HDA*-style,
// Kishimoto/Fukunaga/Botea): the frontier is partitioned across worker
// goroutines by a hash of the state key, so each worker owns the open list
// and the bestG (closed/seen) entries of its shard and never takes a lock to
// touch them. Successors generated on one shard are routed to their owning
// shard over bounded channels; termination is a distributed quiescence check
// over a single global credit counter (open nodes + in-flight messages).
// DESIGN.md §10 gives the termination argument and the determinism caveats.

// parallelAlgoName labels the sharded A* in metrics, trace events, and error
// text.
const parallelAlgoName = "PA*"

// shardOf assigns a state key to one of n shards: FNV-1a over the key bytes.
// State keys are already near-uniform 128-bit hashes, but FNV keeps the
// mapping well-distributed even for toy problems whose keys are short
// decimal strings.
func shardOf(key string, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * prime32
	}
	return int(h % uint32(n))
}

// shardInboxCap is the default per-shard inbound channel capacity
// (Limits.ShardInboxCap overrides it). Full channels are never blocked on
// while a worker holds expandable nodes: sends that would block fall back to
// a per-worker outbox (counted as deferred) and are flushed
// opportunistically, so routing cannot deadlock.
const shardInboxCap = 1024

// incumbent is the best goal found so far, shared by all shards. Once set,
// its g value (read lock-free through bound) prunes every node whose f
// exceeds it; nodes on the f == g plateau are still goal-tested (a second
// goal with equal cost may win the deterministic tie-break) but not
// expanded. The tie-break — minimum g, then lexicographically least
// operator-text sequence — makes the final choice independent of which
// shard reported its goal first whenever both goals are generated at all.
type incumbent struct {
	mu    sync.Mutex
	set   bool
	g     int
	path  []Move
	goal  State
	bound atomic.Int64 // g of the incumbent; math.MaxInt64 until one is set
}

func newIncumbent() *incumbent {
	in := &incumbent{}
	in.bound.Store(math.MaxInt64)
	return in
}

// offer installs (goal, g, path) if it beats the current incumbent under the
// deterministic order. The path must be caller-owned (never mutated after).
func (in *incumbent) offer(goal State, g int, path []Move) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.set {
		if g > in.g {
			return
		}
		if g == in.g && !lessMovePath(path, in.path) {
			return
		}
	}
	in.set, in.g, in.path, in.goal = true, g, path, goal
	in.bound.Store(int64(g))
}

// lessMovePath orders move paths lexicographically by operator text,
// shorter prefix first — a total, scheduling-independent order for
// tie-breaking goals of equal cost.
func lessMovePath(a, b []Move) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if ai, bi := a[i].Op.String(), b[i].Op.String(); ai != bi {
			return ai < bi
		}
	}
	return len(a) < len(b)
}

// parRun is the state shared by every shard worker of one ParallelAStar run.
type parRun struct {
	p       Problem
	h       Heuristic
	lim     Limits
	ctx     context.Context
	workers int
	greedy  bool

	inbox []chan *node

	// pending is the quiescence credit counter: the number of nodes created
	// (rooted, queued, in an outbox, in flight, or in a shard's open list)
	// and not yet retired. Every node is incremented before it is handed
	// anywhere and decremented exactly once by the shard that disposes of it;
	// children are credited before their parent is retired, so pending can
	// reach 0 only when no live node exists anywhere. The decrement that
	// reaches 0 ends the run.
	pending atomic.Int64
	// examined is the global count of goal tests, shared so MaxStates bounds
	// the whole run, not each shard.
	examined atomic.Int64

	done     chan struct{}
	stopOnce sync.Once
	stopErr  atomic.Pointer[runStop]

	inc  *incumbent
	c    *counter // run-level events, instruments, best-effort tracker
	seqs atomic.Int64

	// shardExamined holds every shard's examined counter so any worker can
	// compute the live imbalance gauge on its sampling cadence; nil without
	// metrics. gImbalance is the run-wide imbalance gauge (permille, since
	// gauges are integers: 1000 = perfectly balanced).
	shardExamined []*obs.Counter
	gImbalance    *obs.Gauge
}

// runStop carries the first failure that stopped the run; a nil-error stop
// is quiescence.
type runStop struct{ err error }

// stop ends the run once: on quiescence err is nil, otherwise it is the
// first failure (budget, deadline, cancellation, problem error, panic).
func (r *parRun) stop(err error) {
	r.stopOnce.Do(func() {
		if err != nil {
			r.stopErr.Store(&runStop{err: err})
		}
		close(r.done)
	})
}

// retire returns one quiescence credit; the holder of the last credit ends
// the run.
func (r *parRun) retire() {
	if r.pending.Add(-1) == 0 {
		r.stop(nil)
	}
}

// routedNode is an outbox entry: a node waiting for capacity on its owning
// shard's inbox.
type routedNode struct {
	dst int
	n   *node
}

// parWorker is one shard: it owns the bestG entries and the open heap of
// every state whose key hashes to its id.
type parWorker struct {
	id int
	r  *parRun

	open        frontier
	bestG       map[string]int
	outbox      []routedNode
	maxFrontier int
	generated   int
	examined    int

	// Pre-resolved per-shard instruments; nil (no-op) without metrics.
	mExamined *obs.Counter
	mRouted   *obs.Counter
	mDeferred *obs.Counter
	gInbox    *obs.Gauge

	// ring is this shard's flight-recorder ring (nil without a recorder);
	// written only from the worker's own goroutine.
	ring *obs.FlightRing
}

// ParallelAStar is A* over a hash-sharded frontier: the open list and the
// bestG map are partitioned across `workers` goroutines by state-key hash,
// successors are routed to their owning shard over bounded channels, and the
// run ends either at quiescence (every shard idle, no message in flight —
// the distributed analogue of an empty open list) or at the first abort.
//
// Unlike sequential A*, the run does not return at the first goal: the goal
// becomes an incumbent that prunes the remaining frontier (f > g* discarded;
// f == g* goal-tested but not expanded), and the best goal under a
// deterministic tie-break (minimum g, then lexicographically least
// operator-text path) is returned at quiescence. With an admissible heuristic the result
// cost is optimal, as for A*; speculative expansion means Stats.Examined can
// exceed the sequential count (see DESIGN.md §10 for why, and for the
// determinism caveats under inadmissible heuristics).
//
// The Problem and Heuristic are called concurrently from shard workers and
// must be safe for concurrent use. workers <= 0 means GOMAXPROCS; workers ==
// 1 runs the same engine on a single shard (no channels are needed but the
// incumbent/quiescence semantics are identical, so results are comparable
// across worker counts).
func ParallelAStar(ctx context.Context, p Problem, h Heuristic, lim Limits, workers int) (*Result, error) {
	return parallelBestFirst(ctx, p, h, lim, workers, false)
}

// ParallelGreedySearch is the greedy (f = h) variant of ParallelAStar,
// included for symmetry with the sequential ablations. Greedy search is
// incomplete and unordered in g, so the incumbent prune keeps only the
// plateau rule; results match ParallelAStar's determinism caveats.
func ParallelGreedySearch(ctx context.Context, p Problem, h Heuristic, lim Limits, workers int) (*Result, error) {
	return parallelBestFirst(ctx, p, h, lim, workers, true)
}

func parallelBestFirst(ctx context.Context, p Problem, h Heuristic, lim Limits, workers int, greedy bool) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		// Shard workers are CPU-bound peers of each other: on a machine with
		// fewer CPUs than shards the cooperative yield bounds mutual
		// starvation exactly as it does for portfolio members.
		lim.Cooperative = true
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c := newCounter(ctx, parallelAlgoName, lim)
	r := &parRun{
		p: p, h: h, lim: lim, ctx: ctx, workers: workers, greedy: greedy,
		inbox: make([]chan *node, workers),
		done:  make(chan struct{}),
		inc:   newIncumbent(),
		c:     c,
	}
	inboxCap := lim.ShardInboxCap
	if inboxCap <= 0 {
		inboxCap = shardInboxCap
	}
	for i := range r.inbox {
		r.inbox[i] = make(chan *node, inboxCap)
	}

	start := p.Start()
	hs := h(start)
	c.candidate(start, hs, func() []Move { return nil })
	f := hs
	root := &node{state: start, g: 0, f: f}

	ws := make([]*parWorker, workers)
	for i := range ws {
		w := &parWorker{id: i, r: r, bestG: make(map[string]int)}
		if c.o.Enabled() {
			if m := c.o.Metrics; m != nil {
				shard := strconv.Itoa(i)
				w.mExamined = m.Counter(obs.Name("search.shard.examined", "algo", parallelAlgoName, "shard", shard))
				w.mRouted = m.Counter(obs.Name("search.shard.routed", "algo", parallelAlgoName, "shard", shard))
				w.mDeferred = m.Counter(obs.Name("search.shard.deferred", "algo", parallelAlgoName, "shard", shard))
				w.gInbox = m.Gauge(obs.Name("search.shard.inbox.depth", "algo", parallelAlgoName, "shard", shard))
				r.shardExamined = append(r.shardExamined, w.mExamined)
			}
		}
		// The ring is allocated here but written only from the worker's own
		// goroutine (the goroutine-start edge orders this handoff).
		w.ring = c.o.Flight.Ring("shard-" + strconv.Itoa(i))
		ws[i] = w
	}
	if m := c.o.Metrics; m != nil {
		r.gImbalance = m.Gauge(obs.Name("search.shard.imbalance.permille", "algo", parallelAlgoName))
	}

	// Root credit before the root is enqueued; the inbox has capacity, so
	// this send cannot block.
	r.pending.Store(1)
	r.inbox[shardOf(start.Key(), workers)] <- root

	var wg sync.WaitGroup
	wg.Add(workers)
	for _, w := range ws {
		go func(w *parWorker) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					pe := NewPanicError(fmt.Sprintf("parallel shard worker %d", w.id), rec)
					if c.o.Enabled() {
						if m := c.o.Metrics; m != nil {
							m.Counter(obs.Name("search.panics", "origin", "shard")).Inc()
						}
						c.o.Tracer().Event(obs.Event{Kind: obs.EvPanic, Label: pe.Origin, Err: pe})
					}
					r.stop(pe)
				}
			}()
			w.run()
		}(w)
	}
	wg.Wait()

	// Aggregate per-shard effort into the run counter. Examined comes from
	// the shared budget counter so it matches what the limit checks saw;
	// MaxFrontier sums the shard peaks — an upper bound on the peak global
	// open size, the analogue of the sequential open-list peak.
	c.stats.Examined = int(r.examined.Load())
	for _, w := range ws {
		c.stats.Generated += w.generated
		c.stats.MaxFrontier += w.maxFrontier
	}

	if s := r.stopErr.Load(); s != nil {
		return nil, c.fail(s.err)
	}
	r.inc.mu.Lock()
	set, path, goal := r.inc.set, r.inc.path, r.inc.goal
	r.inc.mu.Unlock()
	if !set {
		return nil, c.fail(ErrNotFound)
	}
	return c.finish(&Result{Path: path, Goal: goal}), nil
}

// run is a shard worker's main loop: drain the inbox, flush the outbox,
// process the best open node, and block only when the shard is fully idle.
func (w *parWorker) run() {
	r := w.r
	for {
		select {
		case <-r.done:
			return
		default:
		}
		// Accept everything already queued for this shard, then move what
		// this shard has queued for others, both without blocking.
		w.drainInbox()
		w.flushOutbox()
		if w.open.Len() > 0 {
			if !w.step() {
				return
			}
			continue
		}
		if len(w.outbox) > 0 {
			// Nothing to expand locally but messages are stuck on full
			// inboxes: block on the head destination, while still accepting
			// our own arrivals so two mutually-full shards cannot livelock.
			head := w.outbox[0]
			select {
			case r.inbox[head.dst] <- head.n:
				w.mRouted.Inc()
				w.outbox = w.outbox[1:]
			case n := <-r.inbox[w.id]:
				w.arrive(n)
			case <-r.done:
				return
			case <-r.ctx.Done():
				r.stop(r.ctx.Err())
				return
			}
			continue
		}
		// Fully idle: wait for routed work or the end of the run.
		select {
		case n := <-r.inbox[w.id]:
			w.arrive(n)
		case <-r.done:
			return
		case <-r.ctx.Done():
			r.stop(r.ctx.Err())
			return
		}
	}
}

// drainInbox accepts every node already queued for this shard.
func (w *parWorker) drainInbox() {
	for {
		select {
		case n := <-w.r.inbox[w.id]:
			w.arrive(n)
		default:
			return
		}
	}
}

// flushOutbox forwards deferred nodes for which their destination inbox now
// has capacity; the rest stay queued.
func (w *parWorker) flushOutbox() {
	kept := w.outbox[:0]
	for _, rn := range w.outbox {
		select {
		case w.r.inbox[rn.dst] <- rn.n:
			w.mRouted.Inc()
		default:
			kept = append(kept, rn)
		}
	}
	w.outbox = kept
}

// arrive admits a routed node into this shard: duplicate paths that do not
// improve the shard's bestG are retired on the spot, improvements enter the
// open heap.
func (w *parWorker) arrive(n *node) {
	if g, ok := w.bestG[n.state.Key()]; ok && n.g >= g {
		w.r.retire()
		return
	}
	w.bestG[n.state.Key()] = n.g
	w.seq(n)
	heap.Push(&w.open, n)
	if w.open.Len() > w.maxFrontier {
		w.maxFrontier = w.open.Len()
	}
}

// seq stamps a heap tie-break ordinal. Within one shard the ordinal keeps
// pops stable; across shards it carries no meaning (arrival order is
// scheduling-dependent), which is one of the documented determinism caveats.
func (w *parWorker) seq(n *node) {
	n.seq = int(w.r.seqs.Add(1))
}

// step processes the best open node of this shard. It returns false when the
// run must end (this worker observed a stop condition).
func (w *parWorker) step() bool {
	r := w.r
	n := heap.Pop(&w.open).(*node)
	if g, ok := w.bestG[n.state.Key()]; ok && n.g > g {
		r.retire() // superseded while queued
		return true
	}
	bound := r.inc.bound.Load()
	if int64(n.f) > bound {
		// Cannot beat the incumbent (h(goal) = 0 makes a goal's f its g, so
		// pruning strictly-greater f never discards a tying goal).
		r.retire()
		return true
	}
	if err := w.examineState(); err != nil {
		r.stop(err)
		return false
	}
	seq := int(r.examined.Load())
	if w.isGoal(n.state, n.g, seq) {
		r.inc.offer(n.state, n.g, n.path)
		r.retire()
		return true
	}
	if int64(n.f) == bound || !r.c.depthOK(n.g+1) {
		// Plateau nodes (f equal to the incumbent's cost) are goal-tested
		// above for the tie-break but never expanded: their descendants cost
		// at least as much and cannot win.
		r.retire()
		return true
	}
	moves, err := w.expand(n, seq)
	if err != nil {
		r.stop(err)
		return false
	}
	bound = r.inc.bound.Load() // may have tightened during the expansion
	for _, m := range moves {
		g := n.g + m.Cost
		k := m.To.Key()
		if prev, seen := w.bestG[k]; seen && g >= prev {
			// bestG holds only keys this shard owns, so a hit means we are
			// the authority for k and already know a path at least as good.
			continue
		}
		hv := r.h(m.To)
		f := g + hv
		if r.greedy {
			f = hv
		}
		if !r.greedy && int64(f) > bound {
			continue // pruned by the incumbent before paying for a message
		}
		path := make([]Move, 0, len(n.path)+1)
		path = append(path, n.path...)
		path = append(path, m)
		r.c.candidate(m.To, hv, func() []Move { return path })
		w.deliver(&node{state: m.To, g: g, f: f, path: path})
	}
	r.retire()
	return true
}

// deliver credits and routes one generated node to its owning shard. Local
// nodes are admitted directly; remote sends that would block are deferred to
// the outbox so expansion never stalls on a full channel.
func (w *parWorker) deliver(n *node) {
	r := w.r
	r.pending.Add(1)
	dst := shardOf(n.state.Key(), r.workers)
	if dst == w.id {
		w.arrive(n)
		return
	}
	select {
	case r.inbox[dst] <- n:
		w.mRouted.Inc()
		w.ring.Record(obs.FKRoute, 0, int32(dst), 0)
	default:
		w.outbox = append(w.outbox, routedNode{dst: dst, n: n})
		w.mDeferred.Inc()
		w.ring.Record(obs.FKDefer, 0, int32(dst), int32(len(w.outbox)))
	}
}

// examineState is the sharded analogue of counter.examine: one goal test is
// charged against the global budget, the cooperative yield and the sampled
// wall-clock/heap checks run on the global cadence.
func (w *parWorker) examineState() error {
	r := w.r
	n := r.examined.Add(1)
	w.examined++
	w.mExamined.Inc()
	r.c.mExamined.Inc()
	if r.lim.MaxStates > 0 && n > int64(r.lim.MaxStates) {
		return errStateBudget
	}
	if r.lim.Cooperative && n&15 == 0 {
		r.c.mYields.Inc()
		runtime.Gosched()
	}
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if n&(wallCheckInterval-1) == 1 {
		if !r.lim.Deadline.IsZero() && time.Now().After(r.lim.Deadline) {
			return errWallDeadline
		}
		if r.lim.MaxHeapBytes > 0 && heapLiveBytes() > r.lim.MaxHeapBytes {
			return errHeapBudget
		}
		w.sampleShard(n)
	}
	return nil
}

// sampleShard publishes this shard's backpressure on the wall-check cadence:
// the inbox-depth gauge, a flight record, an EvShardSample trace event, and —
// reading every shard's examined counter — the run-wide imbalance gauge
// (permille of the mean; 1000 = perfectly balanced, 2000 = the busiest shard
// examined twice its fair share). n is the global examined ordinal.
func (w *parWorker) sampleShard(n int64) {
	r := w.r
	depth := len(r.inbox[w.id])
	w.ring.Record(obs.FKInbox, uint32(n), int32(depth), int32(len(w.outbox)))
	if !r.c.o.Enabled() {
		return
	}
	w.gInbox.Set(int64(depth))
	r.c.o.Tracer().Event(obs.Event{
		Kind: obs.EvShardSample, Label: strconv.Itoa(w.id),
		Seq: int(n), N: depth, Depth: len(w.outbox),
	})
	if r.gImbalance != nil && len(r.shardExamined) > 0 {
		var sum, max int64
		for _, c := range r.shardExamined {
			v := c.Value()
			sum += v
			if v > max {
				max = v
			}
		}
		if sum > 0 {
			r.gImbalance.Set(max * 1000 * int64(len(r.shardExamined)) / sum)
		}
	}
}

// isGoal mirrors counter.isGoal with an explicit sequence number (the global
// examined ordinal at the time of the test).
func (w *parWorker) isGoal(s State, g, seq int) bool {
	c := w.r.c
	if !c.o.Enabled() {
		goal := w.r.p.IsGoal(s)
		w.ring.Record(obs.FKExamine, uint32(seq), int32(g), flightBool(goal))
		return goal
	}
	start := time.Now()
	goal := w.r.p.IsGoal(s)
	c.hGoalTest.Observe(time.Since(start))
	w.ring.Record(obs.FKExamine, uint32(seq), int32(g), flightBool(goal))
	c.o.Tracer().Event(obs.Event{Kind: obs.EvGoalTest, Seq: seq, Depth: g, Goal: goal})
	return goal
}

// expand mirrors counter.expand on a shard worker: successor generation is
// timed and traced, and the generated count lands in the shard-local tally
// (aggregated after the run) plus the shared metrics counter.
func (w *parWorker) expand(n *node, seq int) ([]Move, error) {
	c := w.r.c
	if !c.o.Enabled() {
		moves, err := w.r.p.Successors(n.state)
		if err != nil {
			return nil, err
		}
		w.generated += len(moves)
		c.mGenerated.Add(int64(len(moves)))
		w.ring.Record(obs.FKExpand, uint32(seq), int32(n.g), int32(len(moves)))
		return moves, nil
	}
	start := time.Now()
	moves, err := w.r.p.Successors(n.state)
	elapsed := time.Since(start)
	c.hExpand.Observe(elapsed)
	tr := c.o.Tracer()
	if err != nil {
		tr.Event(obs.Event{Kind: obs.EvExpand, Seq: seq, Depth: n.g, Err: err, Elapsed: elapsed})
		return nil, err
	}
	w.generated += len(moves)
	c.mGenerated.Add(int64(len(moves)))
	w.ring.Record(obs.FKExpand, uint32(seq), int32(n.g), int32(len(moves)))
	tr.Event(obs.Event{Kind: obs.EvExpand, Seq: seq, Depth: n.g, N: len(moves), Elapsed: elapsed})
	if c.o.Trace != nil {
		// Operator text is rendered only for an attached tracer.
		for _, m := range moves {
			tr.Event(obs.Event{Kind: obs.EvMove, Label: m.Op.String(), Depth: n.g})
		}
	}
	return moves, nil
}
