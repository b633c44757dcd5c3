package core

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tupelo/internal/datagen"
	"tupelo/internal/faults"
	"tupelo/internal/heuristic"
	"tupelo/internal/obs"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// The fault-injection suite: run with -race. It proves the resilience
// layer's contract — an injected panic anywhere in a discovery never
// crashes the process, a poisoned portfolio member loses its race instead
// of killing it, and best-effort degradation always returns a structurally
// valid partial state.

// assertPanicError checks that err is a *search.Error classifying as
// "panic" and carrying a *search.PanicError with a stack.
func assertPanicError(t *testing.T, err error) *search.PanicError {
	t.Helper()
	var serr *search.Error
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T (%v), want *search.Error", err, err)
	}
	if serr.Cause() != "panic" {
		t.Fatalf("cause = %q, want panic", serr.Cause())
	}
	var pe *search.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no *search.PanicError in chain: %v", err)
	}
	if len(pe.Stack) == 0 || pe.Origin == "" {
		t.Fatalf("panic error missing stack or origin: %+v", pe)
	}
	return pe
}

func TestHeuristicPanicContained(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	inj := faults.NewInjector(1, faults.Fault{Site: faults.SiteHeuristicEval, After: 3, Kind: faults.Panic})
	trace := obs.NewCollector()
	_, err := Discover(src, tgt, Options{
		Heuristic: heuristic.H1,
		FaultHook: inj.Hit,
		Tracer:    trace,
	})
	if err == nil {
		t.Fatal("injected panic produced no error")
	}
	assertPanicError(t, err)
	if inj.Fired(0) != 1 {
		t.Fatalf("fault fired %d times, want 1", inj.Fired(0))
	}
	if trace.Count(obs.EvPanic) == 0 {
		t.Fatal("no EvPanic event emitted")
	}
}

// TestFaultHookKeepsPath: a fault hook that returns changes nothing the
// search does. One IDA*/cosine discovery of MatchingPair(6) runs with a
// no-op hook and without one: the memo, operator, estimate and search
// counters agree, and the hooked run leaves previewed children pending.
// Its hits are what the hook documents: one SiteOpApply per candidate of a
// state's first expansion (core.ops.proposed) and one SiteHeuristicEval
// per estimate computed (heuristic.cache.entries). Cosine, not h1: IDA*/h1
// walks this pair without revisiting a state, so no expansion would be
// answered from the memo.
func TestFaultHookKeepsPath(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	run := func(hook func(faults.Site, string)) (obs.Snapshot, int) {
		reg := obs.NewRegistry()
		opts, err := Options{Algorithm: search.IDA, Heuristic: heuristic.Cosine, Metrics: reg, FaultHook: hook}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		p := newProblem(src, tgt, opts)
		ctx := obs.NewContext(context.Background(), obs.Obs{Metrics: reg})
		if _, err := search.RunContext(ctx, opts.Algorithm, p, p.h, opts.Limits); err != nil {
			t.Fatal(err)
		}
		pending := 0
		for _, s := range p.table {
			if s.db == nil {
				pending++
			}
		}
		return reg.Snapshot(), pending
	}
	hits := map[faults.Site]int64{}
	hooked, pending := run(func(site faults.Site, _ string) { hits[site]++ })
	plain, _ := run(nil)

	// Both runs register the same instruments; heuristic.cache.entries is
	// a gauge.
	flat := func(snap obs.Snapshot) map[string]int64 {
		m := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
		for name, v := range snap.Counters {
			m[name] = v
		}
		for name, v := range snap.Gauges {
			m[name] = v
		}
		return m
	}
	got, want := flat(hooked), flat(plain)
	if len(got) != len(want) {
		t.Fatalf("the hooked run registered %d counters and gauges, the plain run %d", len(got), len(want))
	}
	var names []string
	for name := range want {
		for _, family := range []string{"core.succmemo.", "core.ops.proposed", "core.ops.applied", "heuristic.cache.", "search.examined", "search.generated"} {
			if strings.HasPrefix(name, family) {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	var proposed, entries int64
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s = %d with a no-op fault hook, %d without", name, got[name], want[name])
		}
		switch {
		case strings.HasPrefix(name, "core.ops.proposed"):
			proposed += got[name]
		case strings.HasPrefix(name, "heuristic.cache.entries"):
			entries += got[name]
		}
	}
	if plain.Counters["core.succmemo.hits"] == 0 {
		t.Fatal("no memo hits: IDA* deepening should revisit expanded states")
	}
	if pending == 0 {
		t.Error("the hooked run built every child: no state is pending")
	}
	if hits[faults.SiteOpApply] != proposed || hits[faults.SiteHeuristicEval] != entries {
		t.Errorf("hook hits: %d op-apply for %d proposed candidates, %d heuristic-eval for %d estimates",
			hits[faults.SiteOpApply], proposed, hits[faults.SiteHeuristicEval], entries)
	}
}

// TestOpApplyPanicContained seeds a panic into an operator application:
// the serial expansion loop must recover it as a PanicError naming the
// operator and emit EvPanic.
func TestOpApplyPanicContained(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		src, tgt := datagen.MustMatchingPair(4)
		inj := faults.NewInjector(1, faults.Fault{Site: faults.SiteOpApply, After: 5, Kind: faults.Panic})
		trace := obs.NewCollector()
		_, err := Discover(src, tgt, Options{
			Heuristic: heuristic.H1,
			FaultHook: inj.Hit,
			Tracer:    trace,
		})
		if err == nil {
			t.Fatal("injected panic produced no error")
		}
		pe := assertPanicError(t, err)
		// The expansion recovers closest to the site and names the operator.
		if !strings.Contains(pe.Origin, "(op ") {
			t.Fatalf("origin %q does not name the operator", pe.Origin)
		}
		if trace.Count(obs.EvPanic) == 0 {
			t.Fatal("no EvPanic event emitted")
		}
	})
}

// TestPortfolioPanickedMemberLosesRace is the tentpole scenario: a panic
// seeded into one member's heuristic must lose that member the race while
// the others carry on and return a verified mapping.
func TestPortfolioPanickedMemberLosesRace(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	inj := faults.NewInjector(1,
		// Member 1 (ida/h1) panics on its very first heuristic evaluation.
		faults.Fault{Site: faults.SiteHeuristicEval, Match: "h1/", After: 1, Kind: faults.Panic},
		// Member 0 (rbfs/cosine) is briefly delayed so the panic reliably
		// fires before the race is over.
		faults.Fault{Site: faults.SiteHeuristicEval, Match: "cosine/", After: 1, Kind: faults.Delay, Sleep: 30 * time.Millisecond},
	)
	port, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.Cosine},
			{Algorithm: search.IDA, Heuristic: heuristic.H1},
		},
		Options: Options{FaultHook: inj.Hit},
	})
	if err != nil {
		t.Fatalf("race failed outright: %v", err)
	}
	if port.Winner.Heuristic != heuristic.Cosine {
		t.Fatalf("winner = %s, want the healthy cosine member", port.Winner)
	}
	if verr := Verify(port.Expr, src, tgt, nil); verr != nil {
		t.Fatalf("winner's mapping does not verify: %v", verr)
	}
	if inj.Fired(0) != 1 {
		t.Fatalf("panic fault fired %d times, want 1", inj.Fired(0))
	}
	var sawPanic bool
	for _, run := range port.Runs {
		if run.Err == nil {
			continue
		}
		var pe *search.PanicError
		if errors.As(run.Err, &pe) {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatalf("no run reports the recovered panic: %+v", port.Runs)
	}
}

// TestPortfolioRetriesPanickedMember: with a retry budget, a one-shot panic
// costs an attempt, not the race — the slot relaunches (on a hedge config)
// and the portfolio still succeeds.
func TestPortfolioRetriesPanickedMember(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	inj := faults.NewInjector(1,
		faults.Fault{Site: faults.SiteHeuristicEval, After: 1, Kind: faults.Panic},
	)
	port, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs:    []PortfolioConfig{{Algorithm: search.RBFS, Heuristic: heuristic.Cosine}},
		Options:    Options{FaultHook: inj.Hit},
		MaxRetries: 1,
	})
	if err != nil {
		t.Fatalf("race failed despite retry budget: %v", err)
	}
	if len(port.Runs) != 1 || port.Runs[0].Attempts != 2 {
		t.Fatalf("runs = %+v, want one slot with 2 attempts", port.Runs)
	}
	if verr := Verify(port.Expr, src, tgt, nil); verr != nil {
		t.Fatalf("retried mapping does not verify: %v", verr)
	}
}

// TestPortfolioRetryBudgetExhausted: a deterministic panic (fires on every
// evaluation) burns the retry budget and the race reports the panic rather
// than hanging or crashing.
func TestPortfolioRetryBudgetExhausted(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(4)
	inj := faults.NewInjector(1,
		faults.Fault{Site: faults.SiteHeuristicEval, After: 1, Every: 1, Kind: faults.Panic},
	)
	_, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs:    []PortfolioConfig{{Algorithm: search.RBFS, Heuristic: heuristic.Cosine}},
		Options:    Options{FaultHook: inj.Hit},
		MaxRetries: 2,
	})
	if err == nil {
		t.Fatal("deterministic panic should fail the race")
	}
	assertPanicError(t, err)
}

// applyMatchesPartialState checks the structural validity demanded of
// every best-effort result: the partial Expr replayed on the source
// produces exactly PartialState.
func applyMatchesPartialState(t *testing.T, res *Result, src *relation.Database) {
	t.Helper()
	if !res.Partial {
		t.Fatalf("result not partial: %+v", res)
	}
	if res.PartialState == nil {
		t.Fatal("PartialState nil")
	}
	if res.AbortErr == nil {
		t.Fatal("AbortErr nil")
	}
	got, err := res.Apply(src, Options{})
	if err != nil {
		t.Fatalf("partial expression does not evaluate: %v", err)
	}
	if got.Fingerprint() != res.PartialState.Fingerprint() {
		t.Fatalf("replayed partial path diverges from PartialState:\n%s\nvs\n%s", got, res.PartialState)
	}
}

func TestBestEffortHeapBudgetReturnsPartial(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	res, err := Discover(src, tgt, Options{
		Heuristic: heuristic.H1,
		Limits:    search.Limits{MaxHeapBytes: 1, BestEffort: true},
	})
	if err != nil {
		t.Fatalf("best-effort abort surfaced as error: %v", err)
	}
	if !errors.Is(res.AbortErr, search.ErrMemory) || !errors.Is(res.AbortErr, search.ErrLimit) {
		t.Fatalf("AbortErr = %v, want ErrMemory under ErrLimit", res.AbortErr)
	}
	applyMatchesPartialState(t, res, src)
}

func TestBestEffortStateBudgetReturnsPartial(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	res, err := Discover(src, tgt, Options{
		Heuristic: heuristic.H1,
		Limits:    search.Limits{MaxStates: 4, BestEffort: true},
	})
	if err != nil {
		t.Fatalf("best-effort abort surfaced as error: %v", err)
	}
	if !errors.Is(res.AbortErr, search.ErrLimit) {
		t.Fatalf("AbortErr = %v, want ErrLimit", res.AbortErr)
	}
	if res.Stats.Examined == 0 {
		t.Fatal("partial result carries no stats")
	}
	applyMatchesPartialState(t, res, src)
}

func TestBestEffortDeadlineReturnsPartial(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := DiscoverContext(ctx, src, tgt, Options{
		Heuristic: heuristic.H1,
		Limits:    search.Limits{BestEffort: true},
	})
	if err != nil {
		t.Fatalf("best-effort abort surfaced as error: %v", err)
	}
	if !errors.Is(res.AbortErr, context.DeadlineExceeded) {
		t.Fatalf("AbortErr = %v, want DeadlineExceeded", res.AbortErr)
	}
	applyMatchesPartialState(t, res, src)
}

// TestBestEffortVerdictsNotDegraded: ErrNotFound is a verdict that no
// mapping exists and a recovered panic means the partial cannot be
// trusted — neither may degrade into a partial "success".
func TestBestEffortVerdictsNotDegraded(t *testing.T) {
	opts := Options{Limits: search.Limits{BestEffort: true}}
	for name, cause := range map[string]error{
		"exhausted": search.ErrNotFound,
		"panic":     search.NewPanicError("test", "boom"),
	} {
		serr := &search.Error{Err: cause, Partial: &search.Partial{}}
		res, err := finish(nil, serr, opts)
		if err == nil {
			t.Fatalf("%s: degraded into %+v", name, res)
		}
	}
}

// TestBestEffortPortfolioAllHopeless: when every member aborts, the
// portfolio falls back to the best partial with a nil error, and every
// run still records its abort.
func TestBestEffortPortfolioAllHopeless(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(8)
	port, err := DiscoverPortfolio(context.Background(), src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.H1},
			{Algorithm: search.IDA, Heuristic: heuristic.H1},
		},
		Options: Options{Limits: search.Limits{MaxStates: 5, BestEffort: true}},
	})
	if err != nil {
		t.Fatalf("hopeless best-effort portfolio errored: %v", err)
	}
	if !port.Partial {
		t.Fatal("result not marked partial")
	}
	if port.PartialState == nil {
		t.Fatal("no partial state")
	}
	for _, run := range port.Runs {
		if run.Err == nil {
			t.Fatalf("aborted member reports no error: %+v", run)
		}
	}
}

// TestMidExpansionCancellation pins the shutdown path: members pinned
// mid-apply by a delay fault, the run cancelled from deep inside an
// expansion, every member accounted for, and no goroutine leaked.
func TestMidExpansionCancellation(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faults.NewInjector(1,
		// Every operator application stalls briefly, so the cancel lands
		// while members are mid-expansion.
		faults.Fault{Site: faults.SiteOpApply, After: 1, Every: 1, Kind: faults.Delay, Sleep: 2 * time.Millisecond},
		// The 10th application cancels the whole race from inside an
		// expansion.
		faults.Fault{Site: faults.SiteOpApply, After: 10, Kind: faults.Cancel, Cancel: cancel},
	)
	_, err := DiscoverPortfolio(ctx, src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.H1},
			{Algorithm: search.IDA, Heuristic: heuristic.H1},
		},
		Options: Options{FaultHook: inj.Hit},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var serr *search.Error
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *search.Error", err)
	}
	// Every member goroutine must have been observed until it returned
	// before DiscoverPortfolio returns. Goroutine
	// counts settle rather than drop instantly (timers, runtime helpers).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMidExpansionCancellationRunBookkeeping: under best-effort, a race
// cancelled from deep inside an expansion still returns every member's
// bookkeeping — Duration and Err populated for all — wrapped around the
// best partial.
func TestMidExpansionCancellationRunBookkeeping(t *testing.T) {
	src, tgt := datagen.MustMatchingPair(6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faults.NewInjector(1,
		faults.Fault{Site: faults.SiteOpApply, After: 1, Every: 1, Kind: faults.Delay, Sleep: 2 * time.Millisecond},
		faults.Fault{Site: faults.SiteOpApply, After: 10, Kind: faults.Cancel, Cancel: cancel},
	)
	port, err := DiscoverPortfolio(ctx, src, tgt, PortfolioOptions{
		Configs: []PortfolioConfig{
			{Algorithm: search.RBFS, Heuristic: heuristic.H1},
			{Algorithm: search.IDA, Heuristic: heuristic.H1},
		},
		Options: Options{
			FaultHook: inj.Hit,
			Limits:    search.Limits{BestEffort: true},
		},
	})
	if err != nil {
		t.Fatalf("best-effort cancelled race errored: %v", err)
	}
	if !port.Partial {
		t.Fatal("result not marked partial")
	}
	for _, run := range port.Runs {
		if run.Err == nil {
			t.Fatalf("cancelled member reports no error: %+v", run)
		}
		if run.Duration <= 0 {
			t.Fatalf("member duration not recorded: %+v", run)
		}
		if !errors.Is(run.Err, context.Canceled) {
			t.Fatalf("member error = %v, want context.Canceled", run.Err)
		}
	}
}
