package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"tupelo/internal/core"
	"tupelo/internal/critio"
	"tupelo/internal/heuristic"
	"tupelo/internal/relation"
	"tupelo/internal/repo"
	"tupelo/internal/search"
)

// maxInstanceBytes bounds each critical-instance text block in a job
// request. Critical instances are examples, not data dumps; anything
// larger is a malformed or abusive request and is rejected at the door.
const maxInstanceBytes = 256 << 10

// maxTenantLen bounds the tenant identifier.
const maxTenantLen = 64

// JobRequest is the JSON body of POST /v1/jobs: a discovery job over a
// (source, target) critical-instance pair in critio text format.
type JobRequest struct {
	// Tenant identifies the submitting client for quota, circuit-breaker,
	// and provenance purposes. Required; lowercase [a-z0-9._-], max 64.
	Tenant string `json:"tenant"`
	// Source and Target are critical instances in critio text format
	// (relation blocks plus optional "map" correspondence directives).
	Source string `json:"source"`
	Target string `json:"target"`
	// TimeoutMS lowers the server's per-job wall-clock ceiling for this job;
	// it can never raise it. 0 means the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxStates lowers the server's per-job state budget; 0 means the
	// server default.
	MaxStates int `json:"max_states,omitempty"`
	// BestEffort overrides the server's best-effort default for this job:
	// when true an aborted search degrades to the closest partial mapping
	// instead of an error.
	BestEffort *bool `json:"best_effort,omitempty"`
	// Portfolio selects the racing lineup: "algo/heuristic" or
	// "algo/heuristic/K" specs. Empty means the server's default lineup.
	Portfolio []string `json:"portfolio,omitempty"`
	// NoCache forces a fresh search even when the repository has a
	// committed mapping for the pair (the fresh result re-commits).
	NoCache bool `json:"no_cache,omitempty"`
	// Report asks the server to persist a tupelo-report/v1 run report for
	// this job in its forensics directory.
	Report bool `json:"report,omitempty"`
}

// job is a validated, decoded job: the request plus everything derived
// from it that admission and execution need.
type job struct {
	req     JobRequest
	src     *critio.Instance
	tgt     *critio.Instance
	configs []core.PortfolioConfig
	key     string
}

// validTenant reports whether s is an acceptable tenant identifier.
func validTenant(s string) bool {
	if s == "" || len(s) > maxTenantLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// parsePortfolioSpec reads one "algo/heuristic[/K]" member spec.
func parsePortfolioSpec(spec string) (core.PortfolioConfig, error) {
	fields := strings.Split(strings.TrimSpace(spec), "/")
	if len(fields) != 2 && len(fields) != 3 {
		return core.PortfolioConfig{}, fmt.Errorf("portfolio member %q: want algo/heuristic or algo/heuristic/K", spec)
	}
	algo, err := search.ParseAlgorithm(fields[0])
	if err != nil {
		return core.PortfolioConfig{}, fmt.Errorf("portfolio member %q: %v", spec, err)
	}
	heur, err := heuristic.ParseKind(fields[1])
	if err != nil {
		return core.PortfolioConfig{}, fmt.Errorf("portfolio member %q: %v", spec, err)
	}
	cfg := core.PortfolioConfig{Algorithm: algo, Heuristic: heur}
	if len(fields) == 3 {
		k, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || k < 0 {
			return core.PortfolioConfig{}, fmt.Errorf("portfolio member %q: bad k %q", spec, fields[2])
		}
		cfg.K = k
	}
	return cfg, nil
}

// parseJob decodes and fully validates a job request body. It never
// panics on arbitrary input (fuzzed) and rejects anything the execution
// path could choke on: unknown fields, oversized or unparseable
// instances, bad tenants, bad portfolio specs, negative budgets.
func parseJob(data []byte) (*job, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad job JSON: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bad job JSON: trailing data after request object")
	}
	if !validTenant(req.Tenant) {
		return nil, fmt.Errorf("bad tenant %q: want 1-%d chars of [a-z0-9._-]", req.Tenant, maxTenantLen)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms %d", req.TimeoutMS)
	}
	if req.MaxStates < 0 {
		return nil, fmt.Errorf("negative max_states %d", req.MaxStates)
	}
	if len(req.Source) > maxInstanceBytes || len(req.Target) > maxInstanceBytes {
		return nil, fmt.Errorf("instance too large: max %d bytes", maxInstanceBytes)
	}
	if strings.TrimSpace(req.Source) == "" || strings.TrimSpace(req.Target) == "" {
		return nil, fmt.Errorf("source and target instances are required")
	}
	src, err := critio.ReadString(req.Source)
	if err != nil {
		return nil, fmt.Errorf("source: %v", err)
	}
	tgt, err := critio.ReadString(req.Target)
	if err != nil {
		return nil, fmt.Errorf("target: %v", err)
	}
	if src.DB.Len() == 0 || tgt.DB.Len() == 0 {
		return nil, fmt.Errorf("source and target must each contain at least one relation")
	}
	var configs []core.PortfolioConfig
	for _, spec := range req.Portfolio {
		cfg, err := parsePortfolioSpec(spec)
		if err != nil {
			return nil, err
		}
		configs = append(configs, cfg)
	}
	return &job{
		req:     req,
		src:     src,
		tgt:     tgt,
		configs: configs,
		key:     repo.PairKey(src.DB, tgt.DB),
	}, nil
}

// JobResponse is the JSON body of a successful POST /v1/jobs: the mapping
// (complete or best-effort partial) plus provenance and effort.
type JobResponse struct {
	// Key is the repository key of the (source, target) pair.
	Key string `json:"key"`
	// Cached reports a repository hit: the mapping was served from the
	// fingerprint-keyed store without running a search.
	Cached bool `json:"cached"`
	// Solved is true for a complete, verified mapping; false for a
	// best-effort partial.
	Solved bool `json:"solved"`
	// Partial marks a best-effort prefix mapping from an aborted search.
	Partial bool `json:"partial,omitempty"`
	// Expr is the mapping in fira's canonical textual form.
	Expr string `json:"expr"`
	// Pretty is the paper-style rendering of Expr.
	Pretty string `json:"pretty,omitempty"`
	// Algorithm, Heuristic, K name the configuration that found the
	// mapping (the portfolio winner).
	Algorithm string  `json:"algorithm,omitempty"`
	Heuristic string  `json:"heuristic,omitempty"`
	K         float64 `json:"k,omitempty"`
	// Examined is the states-examined search effort (0 for cache hits).
	Examined int `json:"examined"`
	// Attempts sums member attempts across the portfolio race; > number of
	// members only when the retry policy restarted failed slots.
	Attempts int `json:"attempts,omitempty"`
	// AbortCause names what truncated a partial result (limit, memory,
	// deadline, canceled).
	AbortCause string `json:"abort_cause,omitempty"`
	// ElapsedMS is the server-side handling time, from the moment the
	// handler starts reading the request to the response: body read and
	// parse, repository lookup, admission, queue wait for an execution
	// slot, search and repository commit. A repository hit covers read,
	// parse and lookup only.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	// Error is a human-readable description.
	Error string `json:"error"`
	// Cause is a stable machine-readable cause: bad-request, draining,
	// breaker-open, tenant-quota, queue-full, panic, memory, deadline,
	// canceled, limit, exhausted, error, not-found.
	Cause string `json:"cause"`
	// RetryAfterMS hints when the client should retry, for backpressure
	// causes; mirrored in the Retry-After header (whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// entryResponse renders a repository entry as a job response for the
// cache-hit path and the mappings endpoint.
func entryResponse(e *repo.Entry, elapsedMS float64) *JobResponse {
	return &JobResponse{
		Key:       e.Key,
		Cached:    true,
		Solved:    !e.Partial,
		Partial:   e.Partial,
		Expr:      e.Expr,
		Algorithm: e.Algorithm,
		Heuristic: e.Heuristic,
		K:         e.K,
		Examined:  0,
		ElapsedMS: elapsedMS,
	}
}

// pairInstances returns the decoded databases of the job.
func (j *job) pair() (src, tgt *relation.Database) { return j.src.DB, j.tgt.DB }
