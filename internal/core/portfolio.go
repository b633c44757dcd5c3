package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// PortfolioConfig names one member of a portfolio: an (algorithm,
// heuristic, k) triple. K = 0 means the paper's published constant for the
// pair.
type PortfolioConfig struct {
	Algorithm search.Algorithm
	Heuristic heuristic.Kind
	K         float64
}

// String renders the config as "algo/heuristic" or "algo/heuristic/k=N".
func (c PortfolioConfig) String() string {
	s := fmt.Sprintf("%s/%s", c.Algorithm, c.Heuristic)
	if c.K != 0 {
		s += fmt.Sprintf("/k=%g", c.K)
	}
	return s
}

// DefaultPortfolio returns the racing lineup used when the caller supplies
// none: the paper's two serious algorithms paired with its best vector
// heuristic, plus the strongest admissible-flavored set heuristics as
// hedges on instances where cosine's landscape misleads.
func DefaultPortfolio() []PortfolioConfig {
	return []PortfolioConfig{
		{Algorithm: search.RBFS, Heuristic: heuristic.Cosine},
		{Algorithm: search.IDA, Heuristic: heuristic.Cosine},
		{Algorithm: search.RBFS, Heuristic: heuristic.H3},
		{Algorithm: search.IDA, Heuristic: heuristic.H1},
	}
}

// PortfolioOptions configures DiscoverPortfolio.
type PortfolioOptions struct {
	// Configs are the member configurations to race. Empty means
	// DefaultPortfolio().
	Configs []PortfolioConfig
	// Options is the base configuration shared by every member: Limits,
	// Registry, Correspondences and pruning flags. Algorithm, Heuristic and
	// K are per-member concerns and are overridden. Tracer and Metrics are
	// shared by every member — tracers are concurrency-safe by contract, so
	// a portfolio race produces one interleaved event stream with member
	// start/win/lose/cancel markers delimiting each member's run events.
	// Every member runs with Limits.Cooperative set (racing peers yield to
	// each other).
	Options Options
	// MaxRetries is the total number of member restarts the race may spend
	// recovering failed members before conceding, shared across all member
	// slots. A member that fails with a recovered panic is relaunched on a
	// hedge configuration — the first DefaultPortfolio entry not already
	// racing, when one exists — because a deterministic panic would simply
	// recur on the same (heuristic, k); other unclassified member errors
	// relaunch the same configuration. Deterministic verdicts (exhausted
	// space, budget and deadline aborts) and cancellations are never
	// retried. 0 disables retries. Before each restart the slot waits a
	// delay drawn uniformly from [0, ceiling] (full jitter). The ceiling
	// starts at 5ms and doubles with each further restart of the same slot,
	// capped at 100ms so a crashy member cannot stall the race; the jitter
	// keeps hedged retries across slots — or across a fleet of processes
	// replaying the same failure — from synchronizing.
	MaxRetries int
	// RetrySeed seeds the jitter's deterministic random source, so a fixed
	// seed reproduces the exact restart schedule under test. 0 means seed 1;
	// callers wanting decorrelated schedules across processes (the serve
	// daemon) pass their own per-process seed.
	RetrySeed int64
}

// PortfolioRun reports one member slot's outcome.
type PortfolioRun struct {
	// Config is the member's configuration with K resolved. Under the
	// retry policy a slot relaunched on a hedge reports the hedge — the
	// configuration that actually produced Stats and Err.
	Config PortfolioConfig
	// Stats is the member's search effort on its last attempt — partial if
	// the member was cancelled when another won.
	Stats search.Stats
	// Err is nil for the winner, a wrapped context.Canceled for members
	// cancelled by the winner, and the member's own failure otherwise. A
	// best-effort member that degraded to a partial mapping reports the
	// abort that truncated it.
	Err error
	// Duration is the slot's wall-clock time until return, summed over
	// attempts (excluding retry backoff).
	Duration time.Duration
	// Attempts is the number of times the slot ran; greater than 1 only
	// under the retry policy.
	Attempts int
}

// PortfolioResult is a successful portfolio discovery: the winning member's
// Result plus the outcome of every member. Under Limits.BestEffort a race
// with no complete winner degrades to the best partial mapping any member
// produced (Result.Partial is set and Winner names the member it came
// from).
type PortfolioResult struct {
	*Result
	// Winner is the configuration that produced Result.
	Winner PortfolioConfig
	// Runs reports every member in Configs order.
	Runs []PortfolioRun
}

// DiscoverPortfolio races the member configurations over independent
// copies of the search problem, each on its own goroutine. The first member
// to find a verified mapping wins; the rest are cancelled through the shared
// context and observed until they return, so the per-member stats are
// complete. Each member runs with its own state table: members share no
// estimates, even when they agree on (heuristic, k).
//
// If every member fails, the error is the parent context's error when it
// was cancelled, and otherwise the most informative member error.
func DiscoverPortfolio(ctx context.Context, source, target *relation.Database, popts PortfolioOptions) (*PortfolioResult, error) {
	if source == nil || target == nil {
		return nil, fmt.Errorf("core: nil source or target instance")
	}
	configs := popts.Configs
	if len(configs) == 0 {
		configs = DefaultPortfolio()
	}
	base := popts.Options
	tracer := base.Tracer
	if tracer == nil {
		tracer = obs.Nop
	}

	// A member carries its label (cfg.String()) and duration timer,
	// resolved once: every start, lose, cancel and win event and every
	// outcome would otherwise format them again.
	type member struct {
		cfg   PortfolioConfig
		label string
		opts  Options
		timer *obs.Timer
	}
	buildMember := func(cfg PortfolioConfig) (member, error) {
		o, err := memberOptions(base, cfg)
		if err != nil {
			return member{}, err
		}
		rcfg := PortfolioConfig{Algorithm: o.Algorithm, Heuristic: o.Heuristic, K: o.K}
		return member{cfg: rcfg, label: rcfg.String(), opts: o}, nil
	}
	// Timers are resolved outside buildMember so that only members that run
	// register one: not a lineup that fails validation, not a hedge
	// candidate that is already racing.
	memberTimer := func(label string) *obs.Timer {
		return base.Metrics.Timer(obs.Name("portfolio.member.duration", "member", label))
	}
	members := make([]member, len(configs))
	for i, cfg := range configs {
		m, err := buildMember(cfg)
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	for i := range members {
		members[i].timer = memberTimer(members[i].label)
	}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx     int
		attempt int
		res     *Result
		err     error
		dur     time.Duration
	}
	// Buffered for every possible send — one per attempt — so no goroutine
	// ever blocks on a collector that has already returned.
	ch := make(chan outcome, len(members)+popts.MaxRetries)
	launch := func(idx, attempt int, m member, delay time.Duration) {
		go func() {
			var start time.Time
			defer func() {
				// Belt over applyAll's and discoverNormalized's braces: a
				// panic in this goroutine's own spine (tracing, timing) must
				// also lose the race, not kill the process.
				if r := recover(); r != nil {
					pe := search.NewPanicError("portfolio member "+m.label, r)
					tracer.Event(obs.Event{Kind: obs.EvPanic, Label: m.label, Err: pe})
					var dur time.Duration
					if !start.IsZero() {
						dur = time.Since(start)
					}
					ch <- outcome{idx: idx, attempt: attempt, err: &search.Error{Err: pe}, dur: dur}
				}
			}()
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-raceCtx.Done():
					t.Stop()
					ch <- outcome{idx: idx, attempt: attempt, err: &search.Error{Err: raceCtx.Err()}}
					return
				case <-t.C:
				}
			}
			tracer.Event(obs.Event{Kind: obs.EvMemberStart, Label: m.label, N: len(members)})
			start = time.Now()
			res, err := discoverNormalized(raceCtx, source, target, m.opts, m.label)
			if err == nil && !res.Partial {
				// End the race from the winning goroutine itself: waiting
				// for the collector below to be scheduled can cost a full
				// preemption interval while every CPU runs losing members,
				// dwarfing the search time on small instances. A partial
				// (best-effort) result is not a win and must not end the
				// race — another member may still find a complete mapping.
				cancel()
			}
			ch <- outcome{idx: idx, attempt: attempt, res: res, err: err, dur: time.Since(start)}
		}()
	}
	// Spawn in reverse order: the scheduler favors the most recently
	// spawned goroutine, and earlier configs are listed first because they
	// are expected to win, so they should reach a CPU first when the
	// machine has fewer CPUs than members.
	for i := len(members) - 1; i >= 0; i-- {
		launch(i, 0, members[i], 0)
	}

	inUse := func(cfg PortfolioConfig) bool {
		for _, m := range members {
			if m.cfg == cfg {
				return true
			}
		}
		return false
	}
	// hedge builds a replacement member for a panicked slot: the first
	// default-lineup configuration not already racing. Rerunning the exact
	// (heuristic, k) that just panicked only helps when the panic was
	// transient; a hedge also covers the deterministic case.
	hedge := func() (member, bool) {
		for _, cfg := range DefaultPortfolio() {
			m, err := buildMember(cfg)
			if err != nil || inUse(m.cfg) {
				continue
			}
			m.timer = memberTimer(m.label)
			return m, true
		}
		return member{}, false
	}
	seed := popts.RetrySeed
	if seed == 0 {
		seed = 1
	}
	// Built on the first retry, seeded as if built up front, so a race
	// without retries never pays for seeding it. Drawn only from the
	// collector loop below, so the source needs no lock.
	var retryRNG *rand.Rand

	runs := make([]PortfolioRun, len(members))
	partials := make([]*Result, len(members))
	retriesLeft := popts.MaxRetries
	outstanding := len(members)
	var winner *Result
	var winnerCfg PortfolioConfig
	var bestErr error
	for outstanding > 0 {
		o := <-ch
		m := &members[o.idx]
		run := &runs[o.idx]
		run.Config = m.cfg
		run.Attempts = o.attempt + 1
		run.Duration += o.dur
		m.timer.Observe(o.dur)
		// A best-effort member that degraded reports the abort that
		// truncated it; for race bookkeeping it is a failed member whose
		// partial is kept aside for the no-winner fallback.
		fail := o.err
		if fail == nil && o.res.Partial {
			fail = o.res.AbortErr
			partials[o.idx] = o.res
		}
		if fail != nil {
			run.Err = fail
			var serr *search.Error
			if errors.As(fail, &serr) {
				run.Stats = serr.Stats
			}
			if winner == nil && retriesLeft > 0 && raceCtx.Err() == nil && retriable(fail) {
				retriesLeft--
				next := members[o.idx]
				if isPanicErr(fail) {
					if hm, ok := hedge(); ok {
						next = hm
						members[o.idx] = hm
					}
				}
				base.Metrics.Counter(obs.Name("portfolio.retries", "member", next.label)).Inc()
				if retryRNG == nil {
					retryRNG = rand.New(rand.NewSource(seed))
				}
				launch(o.idx, o.attempt+1, next, retryBackoff(retryRNG, retryBackoffBase, o.attempt))
				continue // outstanding unchanged: the slot runs again
			}
			if errors.Is(fail, context.Canceled) {
				tracer.Event(obs.Event{Kind: obs.EvMemberCancel, Label: m.label, N: run.Stats.Examined, Elapsed: o.dur})
			} else {
				tracer.Event(obs.Event{Kind: obs.EvMemberLose, Label: m.label, N: run.Stats.Examined, Err: fail, Elapsed: o.dur})
			}
			if bestErr == nil || preferError(fail, bestErr) {
				bestErr = fail
			}
			outstanding--
			continue
		}
		run.Stats = o.res.Stats
		outstanding--
		if winner != nil {
			// A slower member also succeeded before noticing the cancel; it
			// still lost the race, so mark it cancelled in the stream.
			tracer.Event(obs.Event{Kind: obs.EvMemberCancel, Label: m.label, N: run.Stats.Examined, Elapsed: o.dur})
			continue
		}
		if verr := Verify(o.res.Expr, source, target, m.opts.Registry); verr != nil {
			// Should be unreachable — the goal test is containment — but a
			// portfolio promises a *verified* winner, so check anyway.
			run.Err = fmt.Errorf("core: portfolio member %s returned unverifiable mapping: %w", run.Config, verr)
			bestErr = run.Err
			tracer.Event(obs.Event{Kind: obs.EvMemberLose, Label: m.label, N: run.Stats.Examined, Err: run.Err, Elapsed: o.dur})
			continue
		}
		winner = o.res
		winnerCfg = run.Config
		base.Metrics.Counter(obs.Name("portfolio.wins", "member", m.label)).Inc()
		tracer.Event(obs.Event{Kind: obs.EvMemberWin, Label: m.label, N: run.Stats.Examined, Goal: true, Elapsed: o.dur})
		cancel() // losers stop at their next examined state
	}

	// Every member has reported (cancelled members included), so no search
	// goroutine can still write a flight ring: flush a requested dump here,
	// the race's join point.
	base.Flight.FlushDump()

	if winner == nil {
		if base.Limits.BestEffort {
			if best, ok := bestPartial(partials, target, base); ok {
				base.Metrics.Counter(obs.Name("portfolio.partial", "member", members[best].label)).Inc()
				return &PortfolioResult{Result: partials[best], Winner: members[best].cfg, Runs: runs}, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, &search.Error{Err: err}
		}
		if bestErr == nil {
			bestErr = search.ErrNotFound
		}
		return nil, bestErr
	}
	return &PortfolioResult{Result: winner, Winner: winnerCfg, Runs: runs}, nil
}

// memberOptions is a member's normalized configuration: the base options
// under cfg's (algorithm, heuristic, k), cooperative. Racing members are
// CPU-bound peers: the cooperative yield in the search loop keeps one
// member from starving the others on fewer cores than members. Solitary
// (non-portfolio) runs never pay it.
func memberOptions(base Options, cfg PortfolioConfig) (Options, error) {
	o := base
	o.Algorithm, o.Heuristic, o.K = cfg.Algorithm, cfg.Heuristic, cfg.K
	o.Limits.Cooperative = true
	o, err := o.normalize()
	if err != nil {
		return Options{}, fmt.Errorf("core: portfolio member %s: %w", cfg, err)
	}
	return o, nil
}

const (
	// retryBackoffBase is the delay ceiling before a slot's first restart.
	retryBackoffBase = 5 * time.Millisecond
	// retryBackoffMax caps the exponential restart delay.
	retryBackoffMax = 100 * time.Millisecond
)

// retryBackoff is the delay before relaunching a slot whose attempt-th run
// (0-based) just failed: full jitter over a capped exponential ceiling —
// uniform in [0, min(base<<attempt, retryBackoffMax)]. The ceiling keeps a
// crashy member from stalling the race; the jitter keeps simultaneous
// failures (several slots, or several processes replaying one fault) from
// relaunching in lockstep.
func retryBackoff(rng *rand.Rand, base time.Duration, attempt int) time.Duration {
	ceiling := retryBackoffMax
	if attempt < 10 {
		if d := base << attempt; d > 0 && d < retryBackoffMax {
			ceiling = d
		}
	}
	return time.Duration(rng.Int63n(int64(ceiling) + 1))
}

// isPanicErr reports whether the member failure is a recovered panic.
func isPanicErr(err error) bool {
	var pe *search.PanicError
	return errors.As(err, &pe)
}

// retriable reports whether a member failure is worth a restart: recovered
// panics and unclassified problem errors are (the fault may be transient,
// and a panicked slot restarts on a hedge config for the deterministic
// case); a member's own verdict — exhausted space, budget, deadline — is
// deterministic and would only recur, and cancellations mean the race is
// already over.
func retriable(err error) bool {
	if isPanicErr(err) {
		return true
	}
	if errors.Is(err, search.ErrNotFound) || errors.Is(err, search.ErrLimit) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// bestPartial picks the index of the best member partial. Members ran
// different heuristics, whose values are mutually incomparable, so every
// partial state is re-scored under one estimator — the base options'
// resolved heuristic against the shared target — and the lowest estimate
// wins; ties keep the earliest member, matching lineup priority.
func bestPartial(partials []*Result, target *relation.Database, base Options) (int, bool) {
	b, err := base.normalize()
	if err != nil {
		return 0, false
	}
	est := heuristic.New(b.Heuristic, target, b.K)
	best, bestScore := -1, 0
	for i, p := range partials {
		if p == nil || p.PartialState == nil {
			continue
		}
		score := est.Estimate(p.PartialState)
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best, best >= 0
}

// preferError ranks member failures by how informative they are to the
// caller: a member's own verdict (no mapping exists, budget exhausted)
// beats a cancellation that merely reflects another member's failure.
func preferError(candidate, incumbent error) bool {
	rank := func(err error) int {
		switch {
		case errors.Is(err, search.ErrNotFound):
			return 3
		case errors.Is(err, search.ErrLimit):
			return 2
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return 0
		default:
			return 1
		}
	}
	return rank(candidate) > rank(incumbent)
}
