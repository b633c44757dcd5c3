// Package server implements tupelo-serve: a long-running mapping-as-a-
// service daemon over the discovery engine. Jobs arrive as HTTP/JSON,
// run through core.DiscoverPortfolio under the resilience stack (panic
// isolation, memory budgets, deadlines, best-effort partials, jittered
// retries), and solved mappings persist in a crash-safe repository keyed
// by the (source, target) fingerprint pair, so repeat requests are
// repository hits, not searches.
//
// Robustness is the design center:
//
//   - Admission control: a bounded waiting queue (429 + Retry-After when
//     full), per-tenant active-job quotas, and a per-tenant circuit
//     breaker that opens after repeated panic/memory verdicts.
//   - Crash safety: the repository survives kill-mid-write (atomic
//     commits, checksums, quarantine-on-recovery), and a panic or memory
//     blowup inside a job returns a structured error without taking the
//     daemon down.
//   - Graceful drain: Shutdown stops admitting, waits for in-flight jobs
//     within a deadline, then cancels them so best-effort partials are
//     persisted and returned rather than lost.
//   - Forensics: every job goroutine runs under a flight recorder whose
//     rings are dumped to the forensics directory when the job dies
//     abnormally, and run reports are persisted on failures (or on
//     request).
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tupelo/internal/core"
	"tupelo/internal/faults"
	"tupelo/internal/lambda"
	"tupelo/internal/obs"
	"tupelo/internal/repo"
	"tupelo/internal/search"
)

// Config configures New. The zero value of every optional field selects a
// conservative default; Repo is required.
type Config struct {
	// Repo is the mapping repository. Required.
	Repo *repo.Repo
	// ForensicsDir, when non-empty, receives flight-recorder dumps
	// (flight-*.jsonl) from jobs that die abnormally and run reports
	// (report-*.json) for failed jobs and jobs that asked for one.
	ForensicsDir string
	// QueueDepth bounds how many admitted jobs may wait for an execution
	// slot; submissions beyond it are rejected with 429. Default 16.
	QueueDepth int
	// MaxConcurrent bounds how many jobs run simultaneously. Default 2.
	MaxConcurrent int
	// TenantMaxActive bounds one tenant's queued+running jobs. Default 4.
	TenantMaxActive int
	// JobTimeout is the per-job wall-clock ceiling; a request's timeout_ms
	// may lower it but never raise it. Default 30s.
	JobTimeout time.Duration
	// MaxStates is the per-job state-budget ceiling; a request may lower
	// it. Default 200,000.
	MaxStates int
	// MaxHeapBytes is the per-job memory budget (search.Limits.MaxHeapBytes);
	// 0 disables the budget.
	MaxHeapBytes uint64
	// BestEffort is the default degradation policy: aborted jobs return
	// the closest partial mapping instead of an error. A request's
	// best_effort field overrides it per job.
	BestEffort bool
	// MaxRetries is the portfolio restart budget per job.
	MaxRetries int
	// Workers is the per-job worker budget handed to the portfolio engine.
	// Default 1: concurrency across jobs, not within them — MaxConcurrent
	// jobs at 1 worker each beats 1 job at N workers for service traffic.
	Workers int
	// BreakerThreshold opens a tenant's circuit after this many
	// consecutive panic or memory verdicts on its jobs. Default 3;
	// negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects the tenant's
	// submissions before closing again. Default 30s.
	BreakerCooldown time.Duration
	// Metrics receives the server.* and job-level engine metric families;
	// exposed at /metrics. Nil means a private registry.
	Metrics *obs.Registry
	// RetrySeed decorrelates retry-backoff jitter across processes; each
	// job derives its own seed from it. 0 means the core default.
	RetrySeed int64
	// FaultHook is the test-only fault-injection hook threaded into every
	// job's engine options (core.Options.FaultHook). Must be nil in
	// production.
	FaultHook func(faults.Site, string)
	// Debugf, when non-nil, receives low-volume diagnostic lines (for
	// example, response-body write failures). Nil discards them; metrics
	// still count the events either way.
	Debugf func(format string, args ...any)

	// now is the test clock for circuit-breaker expiry. Nil means
	// time.Now.
	now func() time.Time
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.TenantMaxActive <= 0 {
		c.TenantMaxActive = 4
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 200_000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// tenantState is one tenant's admission bookkeeping. Guarded by Server.mu.
type tenantState struct {
	// active counts the tenant's queued + running jobs.
	active int
	// consecFatal counts consecutive panic/memory verdicts; reset by any
	// other outcome.
	consecFatal int
	// openUntil is the circuit-breaker expiry; zero when closed.
	openUntil time.Time
}

// Server is the daemon: admission control and queueing around the
// discovery engine plus the mapping repository. Create with New, serve
// with Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	start time.Time

	mu       sync.Mutex
	queued   int
	running  int
	tenants  map[string]*tenantState
	draining bool
	cancels  map[int64]context.CancelFunc

	// sem holds one token per execution slot.
	sem    chan struct{}
	jobSeq atomic.Int64
}

// New builds a Server over the given configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Repo == nil {
		return nil, fmt.Errorf("server: Config.Repo is required")
	}
	cfg = cfg.withDefaults()
	if cfg.ForensicsDir != "" {
		if err := os.MkdirAll(cfg.ForensicsDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: forensics dir: %w", err)
		}
	}
	return &Server{
		cfg:     cfg,
		start:   time.Now(),
		tenants: make(map[string]*tenantState),
		cancels: make(map[int64]context.CancelFunc),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
	}, nil
}

// reject describes an admission refusal.
type reject struct {
	status     int
	cause      string
	msg        string
	retryAfter time.Duration
}

// admit runs admission control for one job: drain gate, circuit breaker,
// tenant quota, queue bound. On success it registers the job's cancel
// func (for drain-deadline cancellation) and returns a release func the
// caller must invoke exactly once when the job leaves the system.
func (s *Server) admit(tenant string, id int64, cancel context.CancelFunc) (release func(), rej *reject) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &reject{status: 503, cause: "draining", msg: "server is draining; not accepting new jobs"}
	}
	t := s.tenants[tenant]
	if t == nil {
		t = &tenantState{}
		s.tenants[tenant] = t
	}
	now := s.cfg.now()
	if t.openUntil.After(now) {
		wait := t.openUntil.Sub(now)
		return nil, &reject{
			status: 503, cause: "breaker-open", retryAfter: wait,
			msg: fmt.Sprintf("circuit open for tenant %q after repeated fatal job verdicts; retry in %s", tenant, wait.Round(time.Millisecond)),
		}
	}
	if t.active >= s.cfg.TenantMaxActive {
		return nil, &reject{
			status: 429, cause: "tenant-quota", retryAfter: time.Second,
			msg: fmt.Sprintf("tenant %q already has %d active jobs (max %d)", tenant, t.active, s.cfg.TenantMaxActive),
		}
	}
	if s.queued >= s.cfg.QueueDepth {
		return nil, &reject{
			status: 429, cause: "queue-full", retryAfter: time.Second,
			msg: fmt.Sprintf("job queue full (%d waiting); shed load and retry", s.queued),
		}
	}
	s.queued++
	t.active++
	s.cancels[id] = cancel
	s.counter("server.jobs.admitted").Inc()
	s.gauge("server.queue.depth").Set(int64(s.queued))
	released := false
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if released {
			return
		}
		released = true
		t.active--
		delete(s.cancels, id)
		s.gauge("server.queue.depth").Set(int64(s.queued))
		s.gauge("server.jobs.running").Set(int64(s.running))
	}, nil
}

// acquireSlot moves an admitted job from the waiting queue into an
// execution slot, or gives up when ctx is cancelled first (client gone,
// drain deadline).
func (s *Server) acquireSlot(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.mu.Lock()
		s.queued--
		s.gauge("server.queue.depth").Set(int64(s.queued))
		s.mu.Unlock()
		return ctx.Err()
	}
	s.mu.Lock()
	s.queued--
	s.running++
	s.gauge("server.queue.depth").Set(int64(s.queued))
	s.gauge("server.jobs.running").Set(int64(s.running))
	s.mu.Unlock()
	return nil
}

// releaseSlot returns an execution slot.
func (s *Server) releaseSlot() {
	<-s.sem
	s.mu.Lock()
	s.running--
	s.gauge("server.jobs.running").Set(int64(s.running))
	s.mu.Unlock()
}

// recordVerdict feeds the per-tenant circuit breaker: panic and memory
// verdicts are the "this tenant's jobs kill workers" signals; anything
// else (success, partials, deadlines, budget exhaustion) closes the
// window. Called after every executed job.
func (s *Server) recordVerdict(tenant, cause string) {
	if s.cfg.BreakerThreshold < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[tenant]
	if t == nil {
		return
	}
	if cause == "panic" || cause == "memory" {
		t.consecFatal++
		if t.consecFatal >= s.cfg.BreakerThreshold {
			t.openUntil = s.cfg.now().Add(s.cfg.BreakerCooldown)
			t.consecFatal = 0
			s.counter(obs.Name("server.breaker.opens", "tenant", tenant)).Inc()
		}
		return
	}
	t.consecFatal = 0
}

// jobOutcome is what runJob hands back to the HTTP layer.
type jobOutcome struct {
	resp   *JobResponse
	errRsp *ErrorResponse
	status int
	// verdict is the search cause fed to the circuit breaker ("" = ran
	// clean).
	verdict string
}

// runJob executes one admitted job inside an execution slot: portfolio
// discovery under the resilience stack, repository commit, forensics.
func (s *Server) runJob(ctx context.Context, j *job, id int64) jobOutcome {
	started := time.Now()
	timeout := s.cfg.JobTimeout
	if ms := j.req.TimeoutMS; ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	maxStates := s.cfg.MaxStates
	if j.req.MaxStates > 0 && j.req.MaxStates < maxStates {
		maxStates = j.req.MaxStates
	}
	bestEffort := s.cfg.BestEffort
	if j.req.BestEffort != nil {
		bestEffort = *j.req.BestEffort
	}

	// Forensics: every job goroutine runs under its own flight recorder;
	// the rings are dumped only when the job dies abnormally (panic,
	// memory, deadline), at the portfolio's join point.
	fr := obs.NewFlightRecorder(0)
	var flightBuf bytes.Buffer
	fr.SetAutoDump(&flightBuf)
	var rb *obs.ReportBuilder
	wantReport := s.cfg.ForensicsDir != "" && j.req.Report
	if wantReport {
		rb = obs.NewReportBuilder()
	}

	src, tgt := j.pair()
	base := core.Options{
		Limits: search.Limits{
			MaxStates:    maxStates,
			MaxHeapBytes: s.cfg.MaxHeapBytes,
			BestEffort:   bestEffort,
		},
		Workers: s.cfg.Workers,
		Metrics: s.cfg.Metrics,
		Flight:  fr,
		Correspondences: append(append([]lambda.Correspondence(nil),
			j.src.Corrs...), j.tgt.Corrs...),
		FaultHook: s.cfg.FaultHook,
	}
	if rb != nil {
		base.Tracer = rb
	}
	popts := core.PortfolioOptions{
		Configs:    j.configs,
		Options:    base,
		MaxRetries: s.cfg.MaxRetries,
		RetrySeed:  s.cfg.RetrySeed + id,
	}

	timer := s.cfg.Metrics.Timer("server.job.duration")
	pres, runErr := core.DiscoverPortfolio(ctx, src, tgt, popts)
	timer.Observe(time.Since(started))

	// Persist forensics before shaping the response: a dump exists only if
	// some member died abnormally.
	if s.cfg.ForensicsDir != "" && flightBuf.Len() > 0 {
		s.writeForensics(fmt.Sprintf("flight-%d-%s.jsonl", id, j.key[:8]), flightBuf.Bytes())
	}
	if wantReport || (s.cfg.ForensicsDir != "" && runErr != nil) {
		s.writeReport(id, j, pres, runErr, base, rb)
	}

	if runErr != nil {
		cause := errCause(runErr)
		s.counter(obs.Name("server.jobs.failed", "cause", cause)).Inc()
		return jobOutcome{
			errRsp:  &ErrorResponse{Error: runErr.Error(), Cause: cause},
			status:  statusForCause(cause),
			verdict: cause,
		}
	}

	res := pres.Result
	attempts := 0
	for _, run := range pres.Runs {
		attempts += run.Attempts
	}
	entry := &repo.Entry{
		Key:       j.key,
		SourceKey: j.key[:32],
		TargetKey: j.key[32:],
		Expr:      res.Expr.String(),
		Partial:   res.Partial,
		Algorithm: res.Algorithm.String(),
		Heuristic: res.Heuristic.String(),
		K:         res.K,
		Examined:  res.Stats.Examined,
		Tenant:    j.req.Tenant,
	}
	if err := s.cfg.Repo.Put(entry); err != nil {
		// The mapping is still good; losing the commit costs a future
		// cache hit, not this response. Count it loudly.
		s.counter("server.repo.put_errors").Inc()
	}
	resp := &JobResponse{
		Key:       j.key,
		Solved:    !res.Partial,
		Partial:   res.Partial,
		Expr:      res.Expr.String(),
		Pretty:    res.Expr.Pretty(),
		Algorithm: res.Algorithm.String(),
		Heuristic: res.Heuristic.String(),
		K:         res.K,
		Examined:  res.Stats.Examined,
		Attempts:  attempts,
	}
	outcome := "solved"
	verdict := ""
	if res.Partial {
		outcome = "partial"
		if res.AbortErr != nil {
			resp.AbortCause = errCause(res.AbortErr)
			verdict = resp.AbortCause
		}
	}
	s.counter(obs.Name("server.jobs.completed", "outcome", outcome)).Inc()
	return jobOutcome{resp: resp, status: 200, verdict: verdict}
}

// writeForensics persists one forensics artifact, best-effort: forensics
// must never fail a job that already has its answer.
func (s *Server) writeForensics(name string, data []byte) {
	path := filepath.Join(s.cfg.ForensicsDir, name)
	if err := os.WriteFile(path, data, 0o644); err == nil {
		s.counter("server.forensics.dumps").Inc()
	}
}

// writeReport builds and persists a tupelo-report/v1 run report for the
// job, best-effort.
func (s *Server) writeReport(id int64, j *job, pres *core.PortfolioResult, runErr error, base core.Options, rb *obs.ReportBuilder) {
	var res *core.Result
	opts := base
	if pres != nil {
		res = pres.Result
		// Report under the winner's configuration, not the base default.
		opts.Algorithm = pres.Winner.Algorithm
		opts.Heuristic = pres.Winner.Heuristic
		opts.K = pres.Winner.K
	}
	src, tgt := j.pair()
	rep, err := core.BuildReport(res, runErr, src, tgt, opts, rb)
	if err != nil {
		return
	}
	f, err := os.Create(filepath.Join(s.cfg.ForensicsDir, fmt.Sprintf("report-%d-%s.json", id, j.key[:8])))
	if err != nil {
		return
	}
	defer f.Close()
	if obs.WriteRunReport(f, rep) == nil {
		s.counter("server.forensics.reports").Inc()
	}
}

// errCause extracts the stable cause string from a discovery error.
func errCause(err error) string {
	var serr *search.Error
	if errors.As(err, &serr) {
		return serr.Cause()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return "error"
}

// statusForCause maps a search verdict to an HTTP status: infrastructure
// deaths (panic) are 500s, load-shedding verdicts (memory) 503s, time and
// budget exhaustion 504s, and "no mapping exists" a client-visible 422.
func statusForCause(cause string) int {
	switch cause {
	case "panic", "error":
		return 500
	case "memory", "canceled":
		return 503
	case "deadline", "limit":
		return 504
	case "exhausted":
		return 422
	default:
		return 500
	}
}

// Draining reports whether Shutdown has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// active returns queued+running under the lock.
func (s *Server) active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued + s.running
}

// Shutdown drains the server: new submissions are rejected immediately
// (readiness goes unready), in-flight jobs run to completion until ctx
// expires, then every remaining job is cancelled — under best-effort
// options that converts running searches into partial mappings, which
// their handlers persist and return — and Shutdown waits a short grace
// for them to settle. Returns nil when the server drained fully.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.counter("server.drains").Inc()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.active() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			// Drain deadline: cancel everything still in flight. Handlers
			// observe the cancellation within one examined state, convert
			// to best-effort partials where allowed, persist, and return.
			s.mu.Lock()
			n := len(s.cancels)
			for _, cancel := range s.cancels {
				cancel()
			}
			s.mu.Unlock()
			s.counter("server.drain.cancelled").Add(int64(n))
			grace := time.NewTimer(5 * time.Second)
			defer grace.Stop()
			for {
				if s.active() == 0 {
					return nil
				}
				select {
				case <-tick.C:
				case <-grace.C:
					return fmt.Errorf("server: %d jobs still active after drain deadline + grace", s.active())
				}
			}
		}
	}
}

func (s *Server) counter(name string) *obs.Counter { return s.cfg.Metrics.Counter(name) }

// debugf forwards to the configured debug sink, if any.
func (s *Server) debugf(format string, args ...any) {
	if s.cfg.Debugf != nil {
		s.cfg.Debugf(format, args...)
	}
}
func (s *Server) gauge(name string) *obs.Gauge { return s.cfg.Metrics.Gauge(name) }
