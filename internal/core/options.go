package core

import (
	"fmt"

	"tupelo/internal/faults"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/search"
)

// Options configures a mapping discovery run. The zero value selects the
// paper's overall best configuration — RBFS with the cosine similarity
// heuristic at its published scaling constant — because the zero Algorithm
// and Heuristic are explicit "unset" sentinels that normalization resolves
// to the paper's best choices. Any field set explicitly is honored as-is.
type Options struct {
	// Algorithm selects the search strategy. The zero value
	// (search.AlgorithmUnset) means RBFS, the paper's overall better
	// performer.
	Algorithm search.Algorithm
	// Heuristic selects the h function of §3. The zero value
	// (heuristic.Unset) means cosine similarity, the paper's overall best;
	// use heuristic.H0 explicitly for blind search.
	Heuristic heuristic.Kind
	// K overrides the scaling constant for the normalized heuristics;
	// 0 means the paper's published constant for (Algorithm, Heuristic).
	K float64
	// Limits bounds the search. Zero means unlimited; Discover applies a
	// defensive default of 1,000,000 states when MaxStates is 0.
	Limits search.Limits
	// Workers is ignored: every run expands its states on its own
	// goroutine (DESIGN.md §10).
	//
	// Deprecated: the successor worker pool it sized was removed; leave it
	// unset.
	Workers int
	// Registry resolves λ functions. Nil means lambda.Builtins() when
	// Correspondences are supplied, and no λ moves otherwise.
	Registry *lambda.Registry
	// Correspondences are the user-indicated complex semantic mappings
	// (§4); each enables λ moves during search.
	Correspondences []lambda.Correspondence
	// Tracer, when non-nil, receives a structured event stream of the
	// search: run start/finish, every expansion with its candidate moves,
	// every goal test, cache hits and misses, and — under
	// DiscoverPortfolio — member start/win/lose/cancel. Implementations
	// must be safe for concurrent use (portfolio members emit from their
	// own goroutines); obs.NewJSONTracer writes the stream as JSON Lines.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives counters, gauges, and timers for the
	// run: per-algorithm examined/generated counts, heuristic cache
	// hit/miss rates, and per-operator proposal/application counts. The
	// registry is race-safe and may be shared across runs; expose it with
	// its WriteJSON/WritePrometheus/Handler methods.
	Metrics *obs.Registry
	// Flight, when non-nil, attaches the forensic flight recorder: every
	// search loop records compact ring-buffered events at a few
	// nanoseconds each into a ring of its own, and the rings
	// are dumped to the recorder's SetAutoDump writer when a run dies from a
	// panic, memory-budget abort, or deadline. Like Metrics, the recorder
	// may be shared by portfolio members; the dump is flushed only after all
	// of a race's goroutines have joined.
	Flight *obs.FlightRecorder
	// FaultHook, when non-nil, is called at the fault-injection sites of
	// the discovery hot path: heuristic evaluation (every estimate actually
	// computed, at state creation or on a search-loop miss, labelled with
	// the run's cache label) and candidate-operator application (each
	// candidate of a state's first expansion, labelled with the operator's
	// textual form; later expansions read the state's memoized moves). A
	// hook that returns changes nothing the search does. It exists solely
	// for the deterministic fault-injection test harness (internal/faults)
	// — the hook runs inline on the search goroutine and must not be set
	// in production.
	FaultHook func(faults.Site, string)
}

// DefaultOptions returns the paper's overall best configuration: RBFS with
// cosine similarity at its published scaling constant. It is Options{},
// whose unset fields normalize to that configuration, kept for readability
// at call sites.
func DefaultOptions() Options { return Options{} }

// defaultMaxStates is the defensive search budget applied when the caller
// leaves Limits.MaxStates at 0. Mapping discovery on critical instances
// examines from a handful to tens of thousands of states; a run that hits
// this bound is lost and should fail loudly rather than spin.
const defaultMaxStates = 1_000_000

// normalize validates and completes the options: unset sentinel fields
// resolve to the paper's best choices and K to the published constant for
// the resulting (Algorithm, Heuristic) pair.
func (o Options) normalize() (Options, error) {
	if o.Algorithm == search.AlgorithmUnset {
		o.Algorithm = search.RBFS
	}
	if o.Heuristic == heuristic.Unset {
		o.Heuristic = heuristic.Cosine
	}
	if o.K < 0 {
		return o, fmt.Errorf("core: negative scaling constant %g", o.K)
	}
	if o.K == 0 {
		o.K = heuristic.DefaultK(o.Algorithm, o.Heuristic)
	}
	if o.Limits.MaxStates == 0 {
		o.Limits.MaxStates = defaultMaxStates
	}
	if len(o.Correspondences) > 0 && o.Registry == nil {
		o.Registry = lambda.Builtins()
	}
	for _, c := range o.Correspondences {
		if err := c.Validate(o.Registry); err != nil {
			return o, fmt.Errorf("core: %v", err)
		}
	}
	return o, nil
}
