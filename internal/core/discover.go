package core

import (
	"context"
	"errors"
	"fmt"

	"tupelo/internal/fira"
	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// Result is a successful mapping discovery — or, when Partial is set, the
// best approximation an aborted best-effort run could produce.
type Result struct {
	// Expr is the discovered mapping expression in L: applied to instances
	// of the source schema it produces (a superset of) the corresponding
	// target instances. For a partial result it is instead the path to the
	// closest state seen — an L prefix of a hypothetical complete mapping.
	Expr fira.Expr
	// Stats reports the search effort; Stats.Examined is the paper's
	// performance measure.
	Stats search.Stats
	// Algorithm, Heuristic and K record the configuration used.
	Algorithm search.Algorithm
	Heuristic heuristic.Kind
	K         float64
	// Partial marks a best-effort result (Limits.BestEffort): the search
	// was aborted by a budget, deadline, or cancellation before reaching
	// the target, and Expr reaches the lowest-heuristic frontier state seen
	// instead of a complete mapping.
	Partial bool
	// PartialState is the database Expr produces from the source critical
	// instance — the approximate target. Nil for complete results.
	PartialState *relation.Database
	// PartialH is PartialState's heuristic estimate under this run's
	// (Heuristic, K); comparable only between runs sharing both.
	PartialH int
	// AbortErr is the *search.Error that truncated a best-effort run,
	// carrying the abort cause (errors.Is: ErrLimit, ErrMemory,
	// context.DeadlineExceeded, context.Canceled) and the full Stats. Nil
	// for complete results.
	AbortErr error
}

// Discover searches for a mapping expression from the source critical
// instance to the target critical instance (§2.3). Search starts at the
// source instance and ends when a state containing the target instance is
// reached; the transformation path is returned as a fira.Expr.
//
// Discovery is purely syntactic: no domain knowledge is consulted beyond
// the instances themselves and any λ correspondences in opts (§4).
//
// Discover is DiscoverContext with context.Background().
func Discover(source, target *relation.Database, opts Options) (*Result, error) {
	return DiscoverContext(context.Background(), source, target, opts)
}

// DiscoverContext is Discover under a context: cancellation and deadline
// are checked once per examined state, so a cancelled search returns
// promptly with an error wrapping ctx.Err(). The returned error is a
// *search.Error carrying the partial Stats accumulated before the
// cancellation, recoverable with errors.As.
func DiscoverContext(ctx context.Context, source, target *relation.Database, opts Options) (*Result, error) {
	if source == nil || target == nil {
		return nil, fmt.Errorf("core: nil source or target instance")
	}
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	res, derr := discoverNormalized(ctx, source, target, opts, "")
	// The search has returned: if the run died in a way that requested a
	// flight dump (panic, memory, deadline), flush it now, at the one point
	// where no ring can still be written. Portfolio races flush at their own
	// join point instead.
	opts.Flight.FlushDump()
	return res, derr
}

// discoverNormalized runs discovery on already-normalized options. Split
// from DiscoverContext so the portfolio runner, which normalizes each
// member configuration up front, can launch members directly. label names
// the run in its flight ring and run events: a portfolio member's
// configuration, or "" for the algorithm name.
//
// A panic anywhere in the run — a heuristic evaluated on the search
// goroutine, the goal test, move generation — is recovered here and
// returned as a *search.Error wrapping a *search.PanicError, so discovery
// never takes down the caller. (Operator and pre-warm panics are recovered
// closer to the site, in applyAll, and arrive as ordinary expansion errors.)
func discoverNormalized(ctx context.Context, source, target *relation.Database, opts Options, label string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := search.NewPanicError(fmt.Sprintf("discover %s/%s", opts.Algorithm, cacheLabel(opts)), r)
			if opts.Tracer != nil {
				opts.Tracer.Event(obs.Event{Kind: obs.EvPanic, Label: pe.Origin, Err: pe})
			}
			opts.Metrics.Counter(obs.Name("search.panics", "origin", "discover")).Inc()
			opts.Flight.RequestDump("panic")
			res, err = nil, &search.Error{Err: pe}
		}
	}()
	hooks := obs.Obs{Metrics: opts.Metrics, Trace: opts.Tracer, Flight: opts.Flight, Label: label}
	if hooks.Enabled() || hooks.Flight != nil {
		// Hand metrics and tracing down to the search algorithms (run
		// events, per-algorithm examined/generated counters) without
		// widening their signatures.
		ctx = obs.NewContext(ctx, hooks)
	}
	prob := newProblem(source, target, opts)
	sres, serr := search.RunContext(ctx, opts.Algorithm, prob, prob.h, opts.Limits)
	return finish(sres, serr, opts)
}

// cacheLabel names a run's heuristic for metrics: members of a portfolio
// agreeing on (heuristic, k) produce the same label and therefore aggregate
// into the same estimate lookup counters and evaluation histogram.
func cacheLabel(opts Options) string {
	return fmt.Sprintf("%s/k=%g", opts.Heuristic, opts.K)
}

// finish converts a search result into a mapping result. Under
// Limits.BestEffort a degradable abort — budget, deadline, cancellation —
// converts into a nil-error partial Result instead of a failure.
func finish(res *search.Result, err error, opts Options) (*Result, error) {
	if err != nil {
		if opts.Limits.BestEffort {
			if pr, ok := bestEffortResult(err, opts); ok {
				return pr, nil
			}
		}
		return nil, err
	}
	return &Result{
		Expr:      pathExpr(res.Path),
		Stats:     res.Stats,
		Algorithm: opts.Algorithm,
		Heuristic: opts.Heuristic,
		K:         opts.K,
	}, nil
}

// pathExpr is the L expression of a move path: the operators its moves
// carry.
func pathExpr(path []search.Move) fira.Expr {
	expr := make(fira.Expr, len(path))
	for i, m := range path {
		expr[i] = m.Op.(fira.Op)
	}
	return expr
}

// bestEffortResult converts a degradable search failure into a partial
// Result: the aborted run's lowest-heuristic frontier state becomes the
// approximate target and the path to it the (prefix) mapping expression.
// Only aborts are degradable — an exhausted space (ErrNotFound) is a
// verdict that no mapping exists, and unclassified errors (including
// recovered panics) mean the partial cannot be trusted.
func bestEffortResult(err error, opts Options) (*Result, bool) {
	var serr *search.Error
	if !errors.As(err, &serr) || serr.Partial == nil {
		return nil, false
	}
	switch serr.Cause() {
	case "limit", "memory", "deadline", "canceled":
	default:
		return nil, false
	}
	ds, ok := serr.Partial.State.(*dbState)
	if !ok {
		return nil, false
	}
	return &Result{
		Expr:         pathExpr(serr.Partial.Path),
		Stats:        serr.Stats,
		Algorithm:    opts.Algorithm,
		Heuristic:    opts.Heuristic,
		K:            opts.K,
		Partial:      true,
		PartialState: ds.database(),
		PartialH:     serr.Partial.H,
		AbortErr:     err,
	}, true
}

// BranchingFactor returns the number of successor moves of the source
// critical instance under the given options — the quantity the paper
// states is proportional to |s| + |t| (§2.3). Useful for analyzing and
// testing the successor generator without running a full search.
func BranchingFactor(source, target *relation.Database, opts Options) (int, error) {
	if source == nil || target == nil {
		return 0, fmt.Errorf("core: nil source or target instance")
	}
	opts, err := opts.normalize()
	if err != nil {
		return 0, err
	}
	prob := newProblem(source, target, opts)
	moves, err := prob.Successors(prob.Start())
	if err != nil {
		return 0, err
	}
	return len(moves), nil
}

// Apply executes the discovered expression against a database instance,
// resolving λ functions through the registry configured in opts.
func (r *Result) Apply(db *relation.Database, opts Options) (*relation.Database, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	return r.Expr.Eval(db, opts.Registry)
}
