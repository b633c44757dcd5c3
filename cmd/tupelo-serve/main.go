// Command tupelo-serve runs mapping discovery as a long-lived service: an
// HTTP/JSON daemon that accepts discovery jobs, executes them through the
// portfolio engine under the resilience stack, and persists solved
// mappings in a crash-safe repository keyed by the (source, target)
// critical-instance fingerprints — repeat requests are repository hits,
// not searches.
//
// Usage:
//
//	tupelo-serve -repo DIR [-addr HOST:PORT] [flags]
//
// Endpoints: POST /v1/jobs, GET /v1/mappings[/{key}], GET /v1/stats,
// GET /healthz, GET /readyz, GET /metrics. On SIGTERM/SIGINT the daemon
// stops admitting, drains in-flight jobs within -drain-timeout (their
// best-effort partials are persisted), and exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tupelo/internal/obs"
	"tupelo/internal/repo"
	"tupelo/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "tupelo-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tupelo-serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	repoDir := fs.String("repo", "", "mapping repository directory (required; created if absent)")
	forensics := fs.String("forensics", "", "directory for flight-recorder dumps and run reports (empty = disabled)")
	queue := fs.Int("queue", 16, "max jobs waiting for an execution slot before submissions get 429")
	maxConcurrent := fs.Int("max-concurrent", 2, "max jobs executing simultaneously")
	tenantActive := fs.Int("tenant-active", 4, "max queued+running jobs per tenant")
	jobTimeout := fs.Duration("job-timeout", 30*time.Second, "per-job wall-clock ceiling")
	maxStates := fs.Int("max-states", 200_000, "per-job state-budget ceiling")
	maxMem := fs.String("max-mem", "", "per-job heap budget, e.g. 256M (empty = none)")
	bestEffort := fs.Bool("best-effort", true, "return best-effort partial mappings for aborted jobs")
	retries := fs.Int("retries", 1, "portfolio restart budget per job")
	breakerN := fs.Int("breaker-threshold", 3, "consecutive panic/memory verdicts that open a tenant's circuit (-1 disables)")
	breakerCool := fs.Duration("breaker-cooldown", 30*time.Second, "how long an open circuit rejects a tenant")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight jobs before cancelling them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *repoDir == "" {
		return fmt.Errorf("-repo is required")
	}
	heapBudget, err := parseByteSize(*maxMem)
	if err != nil {
		return fmt.Errorf("max-mem: %v", err)
	}

	metrics := obs.NewRegistry()
	store, err := repo.Open(*repoDir, repo.Options{Metrics: metrics})
	if err != nil {
		return err
	}
	if st := store.Stats(); st.Quarantined > 0 {
		log.Printf("repository recovery: %d entries loaded, %d corrupt files quarantined under %s",
			st.Entries, st.Quarantined, *repoDir)
	} else {
		log.Printf("repository: %d entries loaded from %s", st.Entries, *repoDir)
	}

	srv, err := server.New(server.Config{
		Repo:             store,
		ForensicsDir:     *forensics,
		QueueDepth:       *queue,
		MaxConcurrent:    *maxConcurrent,
		TenantMaxActive:  *tenantActive,
		JobTimeout:       *jobTimeout,
		MaxStates:        *maxStates,
		MaxHeapBytes:     heapBudget,
		BestEffort:       *bestEffort,
		MaxRetries:       *retries,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerCool,
		Metrics:          metrics,
		RetrySeed:        time.Now().UnixNano(),
		Debugf:           log.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if serr := httpSrv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			errCh <- serr
		}
	}()
	log.Printf("serving on http://%s (drain timeout %s)", ln.Addr(), *drainTimeout)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("received %s; draining", sig)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	// The jobs have drained (or been cancelled into persisted partials);
	// now close the listener and let in-flight responses flush.
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if herr := httpSrv.Shutdown(httpCtx); herr != nil && drainErr == nil {
		drainErr = herr
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	log.Printf("drained cleanly; repository has %d entries", store.Stats().Entries)
	return nil
}

// parseByteSize reads sizes like "64M", "2G", "512k", or plain bytes.
func parseByteSize(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := uint64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}
