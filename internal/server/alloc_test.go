package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// jobBody encodes a job request for the handler-level tests below.
func jobBody(t testing.TB, req JobRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// serveJob runs one POST /v1/jobs through h in process, with no network,
// and fails unless it answers 200.
func serveJob(t testing.TB, h http.Handler, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/jobs = %d: %s", rec.Code, rec.Body)
	}
}

// TestJobAllocationBudget bounds the bytes one request allocates, summed
// over every goroutine the request runs: a cold default-portfolio solve and
// a repository hit, each averaged over 20 requests after a warm-up. The
// searches behind these requests examine a handful of states, so the cost
// that could grow is the per-job scaffolding: four flight rings, two parsed
// instances, the metric names and labels of four member runs. Measured on
// linux/amd64: about 65 KB per cold job and 20 KB per hit (69 KB and 20 KB
// under -race). A flight ring that allocated its full 4096-record cap up
// front would add 96 KiB per member and break the cold budget.
func TestJobAllocationBudget(t *testing.T) {
	const (
		requests   = 20
		coldBudget = 160 << 10
		hitBudget  = 48 << 10
	)
	srv, _ := newTestServer(t, nil)
	h := srv.Handler()
	src, tgt := pairN(1)
	for _, tc := range []struct {
		name   string
		req    JobRequest
		budget uint64
	}{
		{"cold", JobRequest{Tenant: "acme", Source: src, Target: tgt, NoCache: true}, coldBudget},
		{"hit", JobRequest{Tenant: "acme", Source: src, Target: tgt}, hitBudget},
	} {
		body := jobBody(t, tc.req)
		serveJob(t, h, body) // warm-up; the cold warm-up also commits the entry the hits read
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < requests; i++ {
			serveJob(t, h, body)
		}
		runtime.ReadMemStats(&after)
		perJob := (after.TotalAlloc - before.TotalAlloc) / requests
		t.Logf("%s: %d bytes/request (budget %d)", tc.name, perJob, tc.budget)
		if perJob > tc.budget {
			t.Errorf("%s job allocates %d bytes per request, budget %d", tc.name, perJob, tc.budget)
		}
	}
}

// BenchmarkServeJob is one job request through the handler, no network: a
// cold default-portfolio solve (no_cache) and a repository hit.
func BenchmarkServeJob(b *testing.B) {
	srv, _ := newTestServer(b, nil)
	h := srv.Handler()
	src, tgt := pairN(1)
	for _, bc := range []struct {
		name    string
		noCache bool
	}{{"cold", true}, {"hit", false}} {
		body := jobBody(b, JobRequest{Tenant: "acme", Source: src, Target: tgt, NoCache: bc.noCache})
		b.Run(bc.name, func(b *testing.B) {
			serveJob(b, h, body) // warm-up; a hit needs the committed entry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveJob(b, h, body)
			}
		})
	}
}
