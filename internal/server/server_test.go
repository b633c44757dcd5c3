package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tupelo/internal/faults"
	"tupelo/internal/obs"
	"tupelo/internal/repo"
)

// easyPair is a small solvable scenario: rename the relation and both
// attributes.
const (
	easySource = "relation Emp\n  nm dept\n  Alice Sales\n  Bob Dev\n"
	easyTarget = "relation Employee\n  Name Dept\n  Alice Sales\n  Bob Dev\n"
	// hardSource/hardTarget needs a relation rename plus four attribute
	// renames — deep enough that a fault-delayed search is reliably still
	// running when a test wants to catch it in flight.
	hardSource = "relation T\n  a b c d\n  1 2 3 4\n  5 6 7 8\n"
	hardTarget = "relation U\n  w x y z\n  1 2 3 4\n  5 6 7 8\n"
)

// pairN returns a unique trivially-solvable pair per n, for tests that
// need distinct repository keys.
func pairN(n int) (string, string) {
	src := fmt.Sprintf("relation R%d\n  a b\n  v%d w%d\n", n, n, n)
	tgt := fmt.Sprintf("relation S%d\n  a b\n  v%d w%d\n", n, n, n)
	return src, tgt
}

type testEnv struct {
	srv  *Server
	ts   *httptest.Server
	repo *repo.Repo
}

func newEnv(t *testing.T, mutate func(*Config)) *testEnv {
	t.Helper()
	srv, store := newTestServer(t, mutate)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{srv: srv, ts: ts, repo: store}
}

// newTestServer builds a server over a fresh repository without listening,
// for tests that drive its Handler directly.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *repo.Repo) {
	t.Helper()
	metrics := obs.NewRegistry()
	store, err := repo.Open(t.TempDir(), repo.Options{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Repo:          store,
		QueueDepth:    8,
		MaxConcurrent: 2,
		JobTimeout:    20 * time.Second,
		MaxStates:     50_000,
		Metrics:       metrics,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, store
}

// submit posts a job and decodes the response into out (JobResponse or
// ErrorResponse), returning the HTTP status.
func (e *testEnv) submit(t *testing.T, req JobRequest, out any) int {
	t.Helper()
	return e.submitCtx(t, context.Background(), req, out)
}

func (e *testEnv) submitCtx(t *testing.T, ctx context.Context, req JobRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, "POST", e.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(hreq)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSolveThenRepositoryHit is the service's reason to exist: the first
// request searches, the second is a repository hit answered without a
// search.
func TestSolveThenRepositoryHit(t *testing.T) {
	env := newEnv(t, nil)
	req := JobRequest{Tenant: "acme", Source: easySource, Target: easyTarget}

	var first JobResponse
	if st := env.submit(t, req, &first); st != 200 {
		t.Fatalf("first submit status = %d", st)
	}
	if first.Cached || !first.Solved || first.Expr == "" || first.Examined == 0 {
		t.Fatalf("first response should be a fresh solve: %+v", first)
	}

	var second JobResponse
	if st := env.submit(t, req, &second); st != 200 {
		t.Fatalf("second submit status = %d", st)
	}
	if !second.Cached || !second.Solved || second.Expr != first.Expr {
		t.Fatalf("second response should be a repository hit with the same mapping: %+v", second)
	}
	if second.Examined != 0 {
		t.Fatalf("repository hit reports search effort: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("key mismatch: %q vs %q", second.Key, first.Key)
	}

	// The mapping is also addressable directly.
	resp, err := http.Get(env.ts.URL + "/v1/mappings/" + first.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/mappings/{key} status = %d", resp.StatusCode)
	}
	var e repo.Entry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Expr != first.Expr || e.Tenant != "acme" {
		t.Fatalf("repository entry mismatch: %+v", e)
	}
}

// TestRestartServesFromRepository proves crash-safe persistence end to
// end: a second server over the same repository directory answers the
// pair from disk.
func TestRestartServesFromRepository(t *testing.T) {
	dir := t.TempDir()
	store, err := repo.Open(dir, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := New(Config{Repo: store})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	env1 := &testEnv{srv: srv1, ts: ts1, repo: store}
	req := JobRequest{Tenant: "acme", Source: easySource, Target: easyTarget}
	var first JobResponse
	if st := env1.submit(t, req, &first); st != 200 {
		t.Fatalf("submit status = %d", st)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean shutdown failed: %v", err)
	}
	ts1.Close()

	// "Restart": a fresh repository handle and server over the same dir.
	store2, err := repo.Open(dir, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Repo: store2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	env2 := &testEnv{srv: srv2, ts: ts2, repo: store2}
	var second JobResponse
	if st := env2.submit(t, req, &second); st != 200 {
		t.Fatalf("submit after restart status = %d", st)
	}
	if !second.Cached || second.Expr != first.Expr {
		t.Fatalf("restarted server did not serve from repository: %+v", second)
	}
}

// TestPanicJobStructuredErrorDaemonSurvives pins the resilience headline:
// a job that panics returns a structured 500 and the daemon keeps serving.
func TestPanicJobStructuredErrorDaemonSurvives(t *testing.T) {
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Match: "h1/", Every: 1, Kind: faults.Panic,
	})
	env := newEnv(t, func(c *Config) { c.FaultHook = inj.Hit })

	var fail ErrorResponse
	st := env.submit(t, JobRequest{
		Tenant: "crashy", Source: easySource, Target: easyTarget,
		Portfolio: []string{"rbfs/h1"},
	}, &fail)
	if st != 500 {
		t.Fatalf("panicking job status = %d, want 500 (%+v)", st, fail)
	}
	if fail.Cause != "panic" || fail.Error == "" {
		t.Fatalf("panicking job error = %+v, want cause panic", fail)
	}

	// The daemon is alive and a clean job still solves.
	resp, err := http.Get(env.ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz after panic: %v %v", resp, err)
	}
	resp.Body.Close()
	var ok JobResponse
	if st := env.submit(t, JobRequest{Tenant: "crashy", Source: easySource, Target: easyTarget}, &ok); st != 200 {
		t.Fatalf("clean job after panic status = %d", st)
	}
	if !ok.Solved {
		t.Fatalf("clean job after panic: %+v", ok)
	}
}

// TestMemoryBudgetStructuredError pins the other fatal verdict: a job that
// blows the heap budget comes back as a structured 503 without killing
// the daemon.
func TestMemoryBudgetStructuredError(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.MaxHeapBytes = 1 }) // nothing fits
	var fail ErrorResponse
	st := env.submit(t, JobRequest{Tenant: "acme", Source: hardSource, Target: hardTarget}, &fail)
	if st != 503 || fail.Cause != "memory" {
		t.Fatalf("memory-blown job = %d %+v, want 503/memory", st, fail)
	}
	// The daemon survived the abort and still reports ready.
	resp, err := http.Get(env.ts.URL + "/readyz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz after memory abort: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestQueueFullReturns429 pins backpressure: with one slot occupied and
// the one queue seat taken, the next submission is shed with 429 +
// Retry-After instead of piling up.
func TestQueueFullReturns429(t *testing.T) {
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Every: 1, Kind: faults.Delay, Sleep: 30 * time.Millisecond,
	})
	env := newEnv(t, func(c *Config) {
		c.FaultHook = inj.Hit
		c.MaxConcurrent = 1
		c.QueueDepth = 1
		c.TenantMaxActive = 10
	})

	var wg sync.WaitGroup
	launch := func(n int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, tgt := pairN(n)
			env.submit(t, JobRequest{Tenant: "acme", Source: src, Target: tgt}, nil)
		}()
	}
	launch(1) // occupies the execution slot
	waitFor(t, 5*time.Second, "job 1 running", func() bool {
		env.srv.mu.Lock()
		defer env.srv.mu.Unlock()
		return env.srv.running == 1
	})
	launch(2) // occupies the single queue seat
	waitFor(t, 5*time.Second, "job 2 queued", func() bool {
		env.srv.mu.Lock()
		defer env.srv.mu.Unlock()
		return env.srv.queued == 1
	})

	src, tgt := pairN(3)
	body, _ := json.Marshal(JobRequest{Tenant: "acme", Source: src, Target: tgt})
	resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("submission over full queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Cause != "queue-full" {
		t.Fatalf("cause = %q, want queue-full", er.Cause)
	}
	wg.Wait()
}

// TestElapsedIncludesQueueWait pins what elapsed_ms measures: the time
// since the handler started, so a job that waited for the execution slot
// reports that wait. Job 1 holds the only slot on a fault-delayed h1 search;
// job 2 (cosine, not delayed) queues behind it for at least 50ms.
func TestElapsedIncludesQueueWait(t *testing.T) {
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Match: "h1/", Every: 1, Kind: faults.Delay, Sleep: 20 * time.Millisecond,
	})
	env := newEnv(t, func(c *Config) {
		c.FaultHook = inj.Hit
		c.MaxConcurrent = 1
	})
	state := func() (running, queued int) {
		env.srv.mu.Lock()
		defer env.srv.mu.Unlock()
		return env.srv.running, env.srv.queued
	}
	// post submits a job without failing the test, so it can run on its own
	// goroutine; job 1 ends by cancellation, so its error is expected.
	post := func(ctx context.Context, req JobRequest) (out JobResponse, status int, err error) {
		body, err := json.Marshal(req)
		if err != nil {
			return out, 0, err
		}
		hreq, err := http.NewRequestWithContext(ctx, "POST", env.ts.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return out, 0, err
		}
		resp, err := env.ts.Client().Do(hreq)
		if err != nil {
			return out, 0, err
		}
		defer resp.Body.Close()
		return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		post(ctx1, JobRequest{Tenant: "one", Source: hardSource, Target: hardTarget, Portfolio: []string{"rbfs/h1"}})
	}()
	waitFor(t, 5*time.Second, "job 1 running", func() bool { r, _ := state(); return r == 1 })

	type reply struct {
		resp   JobResponse
		status int
		err    error
	}
	reply2 := make(chan reply, 1)
	go func() {
		src, tgt := pairN(2)
		var r reply
		r.resp, r.status, r.err = post(context.Background(), JobRequest{Tenant: "two", Source: src, Target: tgt, Portfolio: []string{"rbfs/cosine"}})
		reply2 <- r
	}()
	waitFor(t, 5*time.Second, "job 2 queued", func() bool { _, q := state(); return q == 1 })
	tq := time.Now()
	time.Sleep(60 * time.Millisecond)
	tw := time.Now()
	if r, q := state(); r != 1 || q != 1 {
		t.Fatalf("at tw: running=%d queued=%d, want job 1 still running and job 2 still queued", r, q)
	}

	// Job 1 has done its part; cancelling it frees the slot for job 2.
	cancel1()
	<-done1
	r2 := <-reply2
	if r2.err != nil || r2.status != 200 {
		t.Fatalf("job 2: status %d, err %v", r2.status, r2.err)
	}
	if r2.resp.Cached || !r2.resp.Solved {
		t.Fatalf("job 2 should be a fresh solve: %+v", r2.resp)
	}
	waited := float64(tw.Sub(tq)) / float64(time.Millisecond)
	if r2.resp.ElapsedMS < waited {
		t.Fatalf("job 2 elapsed_ms = %.2f, but it was queued for at least %.2f ms", r2.resp.ElapsedMS, waited)
	}
}

// TestTenantQuota429 pins per-tenant admission: one tenant cannot occupy
// more than its share, while another tenant is still admitted.
func TestTenantQuota429(t *testing.T) {
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Every: 1, Kind: faults.Delay, Sleep: 30 * time.Millisecond,
	})
	env := newEnv(t, func(c *Config) {
		c.FaultHook = inj.Hit
		c.MaxConcurrent = 1
		c.QueueDepth = 8
		c.TenantMaxActive = 1
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src, tgt := pairN(1)
		env.submit(t, JobRequest{Tenant: "greedy", Source: src, Target: tgt}, nil)
	}()
	waitFor(t, 5*time.Second, "job 1 running", func() bool {
		env.srv.mu.Lock()
		defer env.srv.mu.Unlock()
		return env.srv.running == 1
	})

	src, tgt := pairN(2)
	var er ErrorResponse
	if st := env.submit(t, JobRequest{Tenant: "greedy", Source: src, Target: tgt}, &er); st != 429 || er.Cause != "tenant-quota" {
		t.Fatalf("over-quota tenant = %d %+v, want 429/tenant-quota", st, er)
	}
	// A different tenant still gets in.
	src3, tgt3 := pairN(3)
	var ok JobResponse
	if st := env.submit(t, JobRequest{Tenant: "modest", Source: src3, Target: tgt3}, &ok); st != 200 {
		t.Fatalf("other tenant = %d, want 200", st)
	}
	wg.Wait()
}

// TestCircuitBreaker pins per-tenant circuit breaking: repeated fatal
// verdicts open the circuit (503 breaker-open), and it closes again after
// the cooldown.
func TestCircuitBreaker(t *testing.T) {
	clock := time.Now()
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Match: "h1/", Every: 1, Kind: faults.Panic,
	})
	env := newEnv(t, func(c *Config) {
		c.FaultHook = inj.Hit
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Minute
		c.now = now
	})

	crash := func(n int) int {
		src, tgt := pairN(n)
		return env.submit(t, JobRequest{
			Tenant: "crashy", Source: src, Target: tgt, Portfolio: []string{"rbfs/h1"},
		}, nil)
	}
	if st := crash(1); st != 500 {
		t.Fatalf("crash 1 = %d", st)
	}
	if st := crash(2); st != 500 {
		t.Fatalf("crash 2 = %d", st)
	}
	// Threshold reached: the circuit is open even for a clean job.
	var er ErrorResponse
	if st := env.submit(t, JobRequest{Tenant: "crashy", Source: easySource, Target: easyTarget}, &er); st != 503 || er.Cause != "breaker-open" {
		t.Fatalf("open circuit = %d %+v, want 503/breaker-open", st, er)
	}
	if er.RetryAfterMS <= 0 {
		t.Fatalf("breaker-open without retry hint: %+v", er)
	}
	// Other tenants are unaffected.
	var ok JobResponse
	if st := env.submit(t, JobRequest{Tenant: "calm", Source: easySource, Target: easyTarget}, &ok); st != 200 {
		t.Fatalf("other tenant during open circuit = %d", st)
	}
	// After the cooldown the tenant is served again (repository hit from
	// calm's solve — same pair — which is fine: hits bypass the breaker
	// anyway, so use a fresh pair to force a real search).
	clockMu.Lock()
	clock = clock.Add(2 * time.Minute)
	clockMu.Unlock()
	src, tgt := pairN(9)
	if st := env.submit(t, JobRequest{Tenant: "crashy", Source: src, Target: tgt}, nil); st != 200 {
		t.Fatalf("post-cooldown job = %d, want 200", st)
	}
}

// TestShutdownDrainsAndPersistsPartials pins graceful drain: a running
// best-effort job cancelled at the drain deadline returns a partial
// mapping, persists it to the repository, and the server finishes the
// drain cleanly while rejecting new work.
func TestShutdownDrainsAndPersistsPartials(t *testing.T) {
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Every: 1, Kind: faults.Delay, Sleep: 20 * time.Millisecond,
	})
	env := newEnv(t, func(c *Config) {
		c.FaultHook = inj.Hit
		c.BestEffort = true
		c.MaxConcurrent = 1
	})

	req := JobRequest{Tenant: "acme", Source: hardSource, Target: hardTarget}
	type result struct {
		status int
		resp   JobResponse
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.status = env.submit(t, req, &r.resp)
		done <- r
	}()
	waitFor(t, 5*time.Second, "job running", func() bool {
		env.srv.mu.Lock()
		defer env.srv.mu.Unlock()
		return env.srv.running == 1
	})

	// Drain with an immediate deadline: the in-flight job is cancelled.
	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- env.srv.Shutdown(drainCtx) }()

	// New work is rejected while draining, and readiness reflects it.
	waitFor(t, time.Second, "draining flag", env.srv.Draining)
	var er ErrorResponse
	if st := env.submit(t, JobRequest{Tenant: "acme", Source: easySource, Target: easyTarget}, &er); st != 503 || er.Cause != "draining" {
		t.Fatalf("submission during drain = %d %+v, want 503/draining", st, er)
	}
	resp, err := http.Get(env.ts.URL + "/readyz")
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("readyz during drain: %v %v", resp, err)
	}
	resp.Body.Close()

	r := <-done
	if r.status != 200 {
		t.Fatalf("drained job status = %d, want 200 best-effort partial", r.status)
	}
	if !r.resp.Partial || r.resp.Solved || r.resp.Expr == "" && r.resp.Examined == 0 {
		t.Fatalf("drained job response = %+v, want partial", r.resp)
	}
	if r.resp.AbortCause != "canceled" && r.resp.AbortCause != "deadline" {
		t.Fatalf("drained job abort cause = %q", r.resp.AbortCause)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	// The partial was persisted and survives a repository reopen.
	e, ok := env.repo.Get(r.resp.Key)
	if !ok || !e.Partial {
		t.Fatalf("partial not persisted: %+v %v", e, ok)
	}
	store2, err := repo.Open(env.repo.Dir(), repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e2, ok := store2.Get(r.resp.Key); !ok || e2.Expr != e.Expr {
		t.Fatalf("partial lost across reopen: %+v %v", e2, ok)
	}
}

// TestPartialEntryDoesNotShortCircuit ensures a persisted partial is a
// repository miss for discovery purposes and gets upgraded by a complete
// solve.
func TestPartialEntryDoesNotShortCircuit(t *testing.T) {
	env := newEnv(t, nil)
	// Seed a partial entry for the easy pair's key.
	var probe JobResponse
	if st := env.submit(t, JobRequest{Tenant: "acme", Source: easySource, Target: easyTarget}, &probe); st != 200 {
		t.Fatalf("probe = %d", st)
	}
	partial := &repo.Entry{
		Key: probe.Key, SourceKey: probe.Key[:32], TargetKey: probe.Key[32:],
		Expr: "rename_rel[Emp->Employee]", Partial: true,
	}
	// Overwrite cannot downgrade; use a fresh repo dir instead.
	store, err := repo.Open(t.TempDir(), repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(partial); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Repo: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	env2 := &testEnv{srv: srv, ts: ts, repo: store}
	var resp JobResponse
	if st := env2.submit(t, JobRequest{Tenant: "acme", Source: easySource, Target: easyTarget}, &resp); st != 200 {
		t.Fatalf("submit over partial = %d", st)
	}
	if resp.Cached || !resp.Solved {
		t.Fatalf("partial entry short-circuited discovery: %+v", resp)
	}
	if e, _ := store.Get(probe.Key); e == nil || e.Partial {
		t.Fatalf("complete solve did not upgrade the partial entry: %+v", e)
	}
}

// TestForensicsOnPanic asserts a dying job dumps its flight rings and a
// run report into the forensics directory.
func TestForensicsOnPanic(t *testing.T) {
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Match: "h1/", Every: 1, Kind: faults.Panic,
	})
	dir := t.TempDir()
	env := newEnv(t, func(c *Config) {
		c.FaultHook = inj.Hit
		c.ForensicsDir = dir
	})
	st := env.submit(t, JobRequest{
		Tenant: "crashy", Source: easySource, Target: easyTarget,
		Portfolio: []string{"rbfs/h1"},
	}, nil)
	if st != 500 {
		t.Fatalf("panicking job = %d", st)
	}
	reports, _ := filepath.Glob(filepath.Join(dir, "report-*.json"))
	if len(reports) == 0 {
		t.Fatal("no run report persisted for a failed job")
	}
	// The report must carry the abort cause.
	data, err := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("no flight dump persisted for a panicking job")
	}
}

// TestStatsAndMetricsEndpoints smoke-tests the ops surface.
func TestStatsAndMetricsEndpoints(t *testing.T) {
	env := newEnv(t, nil)
	if st := env.submit(t, JobRequest{Tenant: "acme", Source: easySource, Target: easyTarget}, nil); st != 200 {
		t.Fatalf("submit = %d", st)
	}
	resp, err := http.Get(env.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.RepoEntries != 1 || stats.Queued != 0 || stats.Running != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	mresp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"tupelo_server_jobs_admitted", "tupelo_server_repo_misses", "tupelo_repo_puts"} {
		if !strings.Contains(buf.String(), family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
}

// TestConcurrentSubmissionBackpressure floods the server from many
// goroutines under -race: every submission must resolve to a definite
// outcome (solved or a structured rejection), bookkeeping must return to
// zero, and nothing may crash.
func TestConcurrentSubmissionBackpressure(t *testing.T) {
	inj := faults.NewInjector(1, faults.Fault{
		Site: faults.SiteHeuristicEval, Every: 1, Kind: faults.Delay, Sleep: 3 * time.Millisecond,
	})
	env := newEnv(t, func(c *Config) {
		c.FaultHook = inj.Hit
		c.MaxConcurrent = 1
		c.QueueDepth = 2
		c.TenantMaxActive = 3
	})

	const n = 16
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, tgt := pairN(i)
			tenant := "even"
			if i%2 == 1 {
				tenant = "odd"
			}
			var er ErrorResponse
			statuses[i] = env.submitCtx(t, context.Background(), JobRequest{Tenant: tenant, Source: src, Target: tgt}, &er)
		}(i)
	}
	wg.Wait()

	solved, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case 200:
			solved++
		case 429:
			shed++
		default:
			t.Errorf("submission %d: unexpected status %d", i, st)
		}
	}
	if solved == 0 {
		t.Fatal("no submission solved under load")
	}
	if solved+shed != n {
		t.Fatalf("outcomes don't partition: %d solved + %d shed != %d", solved, shed, n)
	}
	if a := env.srv.active(); a != 0 {
		t.Fatalf("active = %d after all submissions returned", a)
	}
	t.Logf("solved=%d shed=%d", solved, shed)
}
