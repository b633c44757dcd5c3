// Package tupelo is a Go implementation of TUPELO, the example-driven data
// mapping system of Fletcher & Wyss, "Data Mapping as Search" (EDBT 2006).
//
// TUPELO discovers executable mapping expressions between relational
// schemas from user-provided critical instances: small example databases
// that illustrate the same information under the source and the target
// schema (the Rosetta Stone principle). Discovery is heuristic search in
// the space of dynamic relational transformations — schema matching
// (renames), data–metadata restructuring (promote, demote, dereference,
// partition, merge, product, drop), and complex many-to-one semantic
// functions (λ).
//
// # Quick start
//
//	src, _ := tupelo.ReadInstanceString(`
//	relation Emp
//	  nm     dept
//	  Alice  Sales
//	`)
//	tgt, _ := tupelo.ReadInstanceString(`
//	relation Employee
//	  Name   Dept
//	  Alice  Sales
//	`)
//	res, err := tupelo.Discover(src.DB, tgt.DB, tupelo.DefaultOptions())
//	// res.Expr now holds:
//	//   rename_att[Emp,nm->Name]
//	//   rename_att[Emp,dept->Dept]
//	//   rename_rel[Emp->Employee]
//
// The discovered expression is executable: apply it with Result.Apply (or
// Expr.Eval) to full instances of the source schema.
package tupelo

import (
	"context"
	"io"

	"tupelo/internal/core"
	"tupelo/internal/critio"
	"tupelo/internal/fira"
	"tupelo/internal/heuristic"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/postproc"
	"tupelo/internal/relation"
	"tupelo/internal/search"
	"tupelo/internal/sqlgen"
)

// Core data model (package internal/relation).
type (
	// Database is a named collection of relations; used for critical
	// instances and for the data a discovered mapping is applied to.
	Database = relation.Database
	// Relation is a named set of tuples over an ordered attribute list.
	Relation = relation.Relation
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
)

// Mapping machinery (packages internal/core, internal/fira,
// internal/lambda, internal/search, internal/heuristic).
type (
	// Options configures Discover; the zero value selects the paper's
	// best configuration (RBFS with the cosine heuristic), so Options{}
	// and DefaultOptions() are equivalent.
	Options = core.Options
	// Result is a successful discovery: the expression plus search stats.
	Result = core.Result
	// Stats reports search effort; Stats.Examined is the paper's
	// performance measure.
	Stats = search.Stats
	// SearchError is the error type returned by failed or cancelled
	// discoveries; it wraps the cause (ErrNotFound, ErrLimit,
	// context.Canceled, context.DeadlineExceeded) and carries the partial
	// Stats, recoverable with errors.As.
	SearchError = search.Error
	// PanicError is the cause wrapped by a SearchError when a discovery
	// goroutine panicked: the recovered value, the captured stack, and the
	// goroutine's identity. Discovery never lets a panic escape to the
	// caller — recover it with errors.As.
	PanicError = search.PanicError
	// PartialMapping is the closest frontier state an aborted best-effort
	// run reached (Limits.BestEffort); carried on SearchError.Partial and
	// surfaced through Result.PartialState when the abort is degradable.
	PartialMapping = search.Partial
	// PortfolioConfig names one member of a portfolio race.
	PortfolioConfig = core.PortfolioConfig
	// PortfolioOptions configures DiscoverPortfolio.
	PortfolioOptions = core.PortfolioOptions
	// PortfolioResult is the winning member's Result plus every member's
	// outcome.
	PortfolioResult = core.PortfolioResult
	// PortfolioRun reports one portfolio member's outcome.
	PortfolioRun = core.PortfolioRun
	// Expr is an executable mapping expression in the language L.
	Expr = fira.Expr
	// Op is a single operator of L.
	Op = fira.Op
	// Correspondence declares a complex semantic mapping (λ) between
	// source attributes and a target attribute.
	Correspondence = lambda.Correspondence
	// Registry resolves the named functions used by λ operators.
	Registry = lambda.Registry
	// Func is a complex semantic function.
	Func = lambda.Func
	// Algorithm selects the search strategy.
	Algorithm = search.Algorithm
	// Heuristic identifies one of the paper's search heuristics.
	Heuristic = heuristic.Kind
	// Limits bounds a discovery run.
	Limits = search.Limits
	// Instance is a critical instance read from the text format: a
	// database plus λ correspondences.
	Instance = critio.Instance
)

// Search algorithms (§2.3).
const (
	// AlgorithmUnset is the zero Algorithm; it resolves to RBFS, the
	// paper's overall best, so a zero-valued Options means "best known"
	// (under Options.ParallelSearch it resolves to AStar, the algorithm
	// the hash-sharded engine partitions).
	AlgorithmUnset = search.AlgorithmUnset
	// IDA is Iterative Deepening A*.
	IDA = search.IDA
	// RBFS is Recursive Best-First Search, the paper's overall best.
	RBFS = search.RBFS
	// AStar is plain A*: historically ablation-only (exponential memory),
	// now also the algorithm Options.ParallelSearch shards across workers.
	AStar = search.AStar
	// Greedy is greedy best-first search (ablation only).
	Greedy = search.Greedy
)

// Search heuristics (§3).
const (
	// HUnset is the zero Heuristic; it resolves to HCosine, the paper's
	// overall best. Use H0 explicitly for blind search.
	HUnset = heuristic.Unset
	// H0 is blind search.
	H0 = heuristic.H0
	// H1 counts target tokens missing from the state.
	H1 = heuristic.H1
	// H2 counts tokens that must switch between data and metadata.
	H2 = heuristic.H2
	// H3 is max(H1, H2).
	H3 = heuristic.H3
	// HLevenshtein is the normalized string edit distance heuristic.
	HLevenshtein = heuristic.Levenshtein
	// HEuclid is the term-vector Euclidean distance heuristic.
	HEuclid = heuristic.Euclid
	// HEuclidNorm is the normalized Euclidean heuristic.
	HEuclidNorm = heuristic.EuclidNorm
	// HCosine is the cosine similarity heuristic.
	HCosine = heuristic.Cosine

	// HHybrid is a post-paper extension combining content and structure
	// (the open question of §7): h1 + h2 + a structural-deficit term.
	HHybrid = heuristic.Hybrid
	// HJaccard is a post-paper extension: scaled Jaccard distance over the
	// role-tagged TNF token sets.
	HJaccard = heuristic.Jaccard
)

// Sentinel discovery errors, matchable with errors.Is against the error
// returned by Discover and friends.
var (
	// ErrNotFound means the search space was exhausted without a mapping.
	ErrNotFound = search.ErrNotFound
	// ErrLimit means the search exceeded Limits.MaxStates.
	ErrLimit = search.ErrLimit
	// ErrMemory means the search exceeded Limits.MaxHeapBytes. It always
	// travels with ErrLimit, so errors.Is(err, ErrLimit) still classifies
	// the run as budget-bound and errors.Is(err, ErrMemory) refines it.
	ErrMemory = search.ErrMemory
)

// NewRelation creates a relation from a name, attribute list, and rows.
func NewRelation(name string, attrs []string, rows ...Tuple) (*Relation, error) {
	return relation.New(name, attrs, rows...)
}

// MustRelation is NewRelation panicking on error, for static fixtures.
func MustRelation(name string, attrs []string, rows ...Tuple) *Relation {
	return relation.MustNew(name, attrs, rows...)
}

// NewDatabase creates a database from relations with unique names.
func NewDatabase(rels ...*Relation) (*Database, error) {
	return relation.NewDatabase(rels...)
}

// MustDatabase is NewDatabase panicking on error, for static fixtures.
func MustDatabase(rels ...*Relation) *Database {
	return relation.MustDatabase(rels...)
}

// DefaultOptions returns the paper's overall best configuration: RBFS with
// the cosine similarity heuristic at its published scaling constant. It is
// Options{}.
func DefaultOptions() Options { return core.DefaultOptions() }

// Discover searches for a mapping expression carrying the source critical
// instance to (a superset of) the target critical instance (§2.3). It is
// DiscoverContext with context.Background().
func Discover(source, target *Database, opts Options) (*Result, error) {
	return core.Discover(source, target, opts)
}

// DiscoverContext is Discover under a context: cancellation and deadline
// are checked once per examined state. A cancelled run returns a
// *SearchError wrapping ctx.Err() with the partial Stats populated.
func DiscoverContext(ctx context.Context, source, target *Database, opts Options) (*Result, error) {
	return core.DiscoverContext(ctx, source, target, opts)
}

// DiscoverPortfolio races several (algorithm, heuristic, k) configurations
// over independent copies of the problem, returning the first verified
// mapping and cancelling the rest. Members share no search state, not even
// heuristic estimates when they agree on (heuristic, k). An empty
// PortfolioOptions races DefaultPortfolio() with the default Options.
func DiscoverPortfolio(ctx context.Context, source, target *Database, popts PortfolioOptions) (*PortfolioResult, error) {
	return core.DiscoverPortfolio(ctx, source, target, popts)
}

// DefaultPortfolio returns the default racing lineup of DiscoverPortfolio.
func DefaultPortfolio() []PortfolioConfig { return core.DefaultPortfolio() }

// Observability (package internal/obs): a race-safe metrics registry and a
// structured trace-event stream, attached to runs through Options.Metrics
// and Options.Tracer.
type (
	// Metrics is a race-safe registry of counters, gauges, and timers.
	// Attach one through Options.Metrics (or PortfolioOptions.Options);
	// expose it with WriteJSON (expvar-style), WritePrometheus (text
	// exposition), or Handler (HTTP, Prometheus by default and JSON with
	// ?format=json).
	Metrics = obs.Registry
	// Tracer receives structured trace events from a run. Implementations
	// must be safe for concurrent use.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// TraceEventKind classifies a TraceEvent.
	TraceEventKind = obs.EventKind
	// TraceCollector is a Tracer that records the event stream in memory.
	TraceCollector = obs.Collector
	// Profile is a Tracer that aggregates a run's event stream into a
	// performance profile: per-depth expansion counts, per-operator apply
	// latencies, and a states/sec timeline. Render it with WriteReport
	// (text) or WriteChromeTrace (chrome://tracing / Perfetto JSON).
	Profile = obs.Profile
	// FlightRecorder is the always-on forensic event log: per-goroutine
	// ring buffers of compact binary records, dumped as a tupelo-flight/v1
	// JSONL stream when a run dies (panic, memory abort, deadline). Attach
	// one through Options.Flight.
	FlightRecorder = obs.FlightRecorder
	// RunReport is the tupelo-report/v1 forensic run report: span tree,
	// heuristic-quality profile, effective branching factor, cache hit
	// rates, and shard balance. Assemble one with BuildReport.
	RunReport = obs.RunReport
	// ReportBuilder is a Tracer that captures the structural skeleton of a
	// run (spans, shard samples, cache traffic) for BuildReport. Attach it
	// through Options.Tracer (compose with MultiTracer to keep others).
	ReportBuilder = obs.ReportBuilder
)

// Trace event kinds emitted during discovery and portfolio races.
const (
	// EvRunStart and EvRunFinish bracket one search run.
	EvRunStart  = obs.EvRunStart
	EvRunFinish = obs.EvRunFinish
	// EvGoalTest, EvExpand and EvMove narrate the search-space exploration.
	EvGoalTest = obs.EvGoalTest
	EvExpand   = obs.EvExpand
	EvMove     = obs.EvMove
	// EvCacheHit and EvCacheMiss report heuristic-cache traffic.
	EvCacheHit  = obs.EvCacheHit
	EvCacheMiss = obs.EvCacheMiss
	// EvOpApply reports one operator application with its latency.
	EvOpApply = obs.EvOpApply
	// EvMemberStart, EvMemberWin, EvMemberLose and EvMemberCancel narrate a
	// portfolio race.
	EvMemberStart  = obs.EvMemberStart
	EvMemberWin    = obs.EvMemberWin
	EvMemberLose   = obs.EvMemberLose
	EvMemberCancel = obs.EvMemberCancel
	// EvPanic reports a recovered panic (successor worker, portfolio
	// member, or the discovery goroutine itself).
	EvPanic = obs.EvPanic
)

// NewMetrics returns an empty metrics registry for Options.Metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewWriterTracer returns a Tracer rendering events as a human-readable
// transcript on w — the adapter for code that previously set the
// Options.TraceWriter field.
func NewWriterTracer(w io.Writer) Tracer { return obs.NewWriterTracer(w) }

// NewTraceCollector returns a Tracer that records the event stream in
// memory for programmatic inspection.
func NewTraceCollector() *TraceCollector { return obs.NewCollector() }

// MultiTracer fans trace events out to several tracers.
func MultiTracer(tracers ...Tracer) Tracer { return obs.MultiTracer(tracers...) }

// NewJSONTracer returns a Tracer writing one JSON object per event to w
// (JSON Lines), for machine-readable transcripts (tupelo discover
// -trace-json).
func NewJSONTracer(w io.Writer) Tracer { return obs.NewJSONTracer(w) }

// NewProfile returns an empty run profile; attach it through Options.Tracer
// (compose with MultiTracer to keep other tracers).
func NewProfile() *Profile { return obs.NewProfile() }

// SampleTracer forwards every n-th high-frequency event (goal tests,
// expansions, moves, operator applies, cache traffic) to t, passing
// structural run/portfolio events through unchanged. n <= 1 returns t.
func SampleTracer(t Tracer, n int) Tracer { return obs.Sample(t, n) }

// NewFlightRecorder returns a flight recorder whose rings hold up to
// ringSize records each (<= 0 selects the default of 4096); a ring starts
// at 64 records and doubles to that cap only as a run fills it. Direct its
// automatic crash dumps with SetAutoDump.
func NewFlightRecorder(ringSize int) *FlightRecorder { return obs.NewFlightRecorder(ringSize) }

// NewReportBuilder returns a report builder whose root span starts now.
func NewReportBuilder() *ReportBuilder { return obs.NewReportBuilder() }

// BuildReport assembles the tupelo-report/v1 run report for one discovery:
// pass the Result and error exactly as DiscoverContext returned them, the
// instances and options of the run, and the ReportBuilder that traced it
// (nil for a report without a span tree). For the shard section to sum
// exactly, Options.Metrics must be a registry private to the run.
func BuildReport(res *Result, runErr error, source, target *Database, opts Options, rb *ReportBuilder) (*RunReport, error) {
	return core.BuildReport(res, runErr, source, target, opts, rb)
}

// WriteRunReport writes a run report as indented JSON.
func WriteRunReport(w io.Writer, r *RunReport) error { return obs.WriteRunReport(w, r) }

// Verify checks the discovery contract: evaluating expr on source yields a
// database containing target.
func Verify(expr Expr, source, target *Database, reg *Registry) error {
	return core.Verify(expr, source, target, reg)
}

// BranchingFactor returns the number of moves available from the source
// instance toward the target — the quantity §2.3 relates to |s| + |t|.
func BranchingFactor(source, target *Database, opts Options) (int, error) {
	return core.BranchingFactor(source, target, opts)
}

// Simplify removes provably redundant steps from a mapping expression
// relative to the given source instance.
func Simplify(expr Expr, source *Database, reg *Registry) Expr {
	return core.Simplify(expr, source, reg)
}

// ParseExpr reads a mapping expression in the textual syntax produced by
// Expr.String (one operator per line, e.g. "rename_att[R,A->B]").
func ParseExpr(src string) (Expr, error) { return fira.Parse(src) }

// Builtins returns a registry with the paper's example complex functions
// (sum, concat, lookups, date/unit/currency conversions).
func Builtins() *Registry { return lambda.Builtins() }

// NewRegistry returns an empty function registry.
func NewRegistry() *Registry { return lambda.NewRegistry() }

// ReadInstance parses a critical instance (relations + map directives)
// from the text format of package critio.
func ReadInstance(r io.Reader) (*Instance, error) { return critio.Read(r) }

// ReadInstanceString parses a critical instance from a string.
func ReadInstanceString(s string) (*Instance, error) { return critio.ReadString(s) }

// WriteInstance renders a critical instance in the text format.
func WriteInstance(w io.Writer, inst *Instance) error { return critio.Write(w, inst) }

// ParseHeuristic resolves a heuristic name ("h0", "h1", "h2", "h3",
// "levenshtein", "euclid", "euclid-norm", "cosine", plus the extended
// kinds). An unknown name yields an error enumerating every valid one.
func ParseHeuristic(s string) (Heuristic, error) { return heuristic.ParseKind(s) }

// Heuristics lists all eight heuristics in the paper's order.
func Heuristics() []Heuristic { return heuristic.Kinds() }

// HeuristicNames returns the accepted name of every heuristic — the paper's
// eight followed by the extended kinds. Command-line help is generated from
// this list, so it cannot drift from what ParseHeuristic accepts.
func HeuristicNames() []string { return heuristic.KindNames() }

// ParseAlgorithm resolves a search-algorithm name ("ida", "rbfs", "astar"
// or "a*", "greedy"), case-insensitively. An unknown name yields an error
// enumerating every valid one.
func ParseAlgorithm(s string) (Algorithm, error) { return search.ParseAlgorithm(s) }

// AlgorithmNames returns the accepted name of every search algorithm, the
// generated source of command-line help like HeuristicNames.
func AlgorithmNames() []string { return search.AlgorithmNames() }

// Post-processing (§2.1): the language L omits relational selection, so a
// mapped instance is a superset of the target; σ and schema conformance are
// applied afterwards according to external criteria.
type (
	// Predicate is a σ condition over tuples.
	Predicate = postproc.Predicate
	// ConformOptions tunes Conform.
	ConformOptions = postproc.ConformOptions
)

// ParsePredicate reads a σ predicate, e.g. `Route in (ATL29, ORD17)` or
// `not absent(TotalCost) and Carrier = AirEast`.
func ParsePredicate(s string) (Predicate, error) { return postproc.Parse(s) }

// Select applies σ_pred to the named relation of db.
func Select(db *Database, rel string, pred Predicate) (*Database, error) {
	return postproc.Select(db, rel, pred)
}

// Conform shapes a mapped database onto the target schema: drops relations
// the target lacks, projects onto the target's attributes, and optionally
// removes rows with absent values.
func Conform(db, target *Database, opts ConformOptions) (*Database, error) {
	return postproc.Conform(db, target, opts)
}

// SQL generation: compile mapping expressions to SQL scripts for execution
// inside an RDBMS.
type (
	// SQLScript is a generated SQL script with its final table bindings.
	SQLScript = sqlgen.Script
	// SQLOptions configures SQL generation (function translators,
	// intermediate table prefix).
	SQLOptions = sqlgen.Options
)

// GenerateSQL compiles a mapping expression into a SQL script, using the
// sample instance (normally the source critical instance) to resolve the
// data-dependent operators ↑ and ℘.
func GenerateSQL(expr Expr, sample *Database, opts SQLOptions) (*SQLScript, error) {
	return sqlgen.Generate(expr, sample, opts)
}
