// Package faults is a deterministic fault-injection harness for the
// discovery resilience layer. Tests arm an Injector with faults — panics,
// delays, forced cancellations — and wire it into the hot path of a
// discovery run through the test-only core.Options.FaultHook, which fires at
// two sites of the one production expansion path; a hook that returns
// changes nothing the search does. A SiteHeuristicEval hit is one estimate
// computed: one per state a run creates, the start state included. A
// SiteOpApply hit is one candidate operator of a state's first expansion; a
// later expansion of the state reads its memoized moves and takes no hit.
// The resilience test suite uses it to prove, under the race detector, that
// a panic injected anywhere in a portfolio loses its race instead of
// killing the process, and that best-effort degradation survives forced
// aborts at arbitrary points.
//
// Determinism: a counted fault fires on the After-th hit matching its site
// and label filter, counted per fault. The matching-hit count at which a
// fault fires does not depend on goroutine interleaving, so a fixed search
// plus a fixed fault schedule reproduces the same injection points; which
// goroutine takes the hit may vary, which is exactly the nondeterminism the
// resilience layer must tolerate. Probabilistic faults draw from a seeded
// generator for reproducible-but-arbitrary schedules.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Site identifies a code location that accepts injected faults.
type Site int

const (
	// SiteHeuristicEval fires on heuristic evaluations: one per state a run
	// creates, at its creation (the start state at the search's first
	// lookup). The label is the run's cache label
	// ("cosine/k=1000"), which is unique per (heuristic, k), so a fault can
	// target a single portfolio member.
	SiteHeuristicEval Site = iota
	// SiteOpApply fires on each candidate operator of a state's first
	// expansion, before its preview or build. The label is the operator's
	// textual form.
	SiteOpApply
	// SiteRepoWrite fires inside the mapping repository's commit path, after
	// the entry's bytes have been partially written to the temp file but
	// before the atomic rename. The label is the entry's repository key. A
	// Panic fault here simulates a process crash mid-write: the torn temp
	// file is left behind for the startup recovery scan to quarantine.
	SiteRepoWrite
)

// String names the site for error messages and panic values.
func (s Site) String() string {
	switch s {
	case SiteHeuristicEval:
		return "heuristic-eval"
	case SiteOpApply:
		return "op-apply"
	case SiteRepoWrite:
		return "repo-write"
	default:
		return fmt.Sprintf("Site(%d)", int(s))
	}
}

// Kind is what happens when a fault fires.
type Kind int

const (
	// Panic panics with Fault.Panic (or a descriptive default value).
	Panic Kind = iota
	// Delay sleeps for Fault.Sleep, holding the injected goroutine inside
	// the site — used to pin a run mid-apply while a test cancels it.
	Delay
	// Cancel calls Fault.Cancel, typically a context.CancelFunc, forcing a
	// cancellation from deep inside the search.
	Cancel
)

// Fault arms one injection. It fires on the After-th hit (1-based; 0 means
// the first) matching Site and Match, and — when Every > 0 — again every
// Every matching hits after that. When Prob is in (0, 1] the fault is
// probabilistic instead: every matching hit fires with probability Prob
// drawn from the injector's seeded generator, and After/Every are ignored.
type Fault struct {
	// Site selects the injection site.
	Site Site
	// Match filters hits by substring of the site label; empty matches all.
	Match string
	// After is the 1-based matching-hit ordinal of the first firing; 0
	// means 1.
	After int64
	// Every re-fires the fault every Every matching hits after the first
	// firing; 0 means fire once.
	Every int64
	// Kind selects the effect.
	Kind Kind
	// Panic is the panic value for Kind Panic; nil means a default naming
	// the site and label.
	Panic any
	// Sleep is the duration for Kind Delay.
	Sleep time.Duration
	// Cancel is invoked for Kind Cancel.
	Cancel context.CancelFunc
	// Prob switches the fault to seeded probabilistic firing.
	Prob float64
}

// armed is a Fault plus its firing state.
type armed struct {
	Fault
	hits  int64
	fired int64
}

// Injector evaluates armed faults on every hook hit. Safe for concurrent
// use: hits arrive from racing portfolio-member goroutines.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults []*armed
}

// NewInjector arms the given faults. The seed drives probabilistic faults
// only; counted faults are deterministic regardless.
func NewInjector(seed int64, faults ...Fault) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, f := range faults {
		in.faults = append(in.faults, &armed{Fault: f})
	}
	return in
}

// Hit is the hook body: it counts the hit against every armed fault and
// executes the effects of those that are due. Wire it as the test-only
// fault hook of a discovery run. Effects run after the injector's lock is
// released, so a Delay holds only the injected goroutine and a Panic
// propagates into the site's recover handler with the injector usable by
// other goroutines throughout.
func (in *Injector) Hit(site Site, label string) {
	var due []*armed
	in.mu.Lock()
	for _, f := range in.faults {
		if f.Site != site || (f.Match != "" && !strings.Contains(label, f.Match)) {
			continue
		}
		f.hits++
		if in.shouldFire(f) {
			f.fired++
			due = append(due, f)
		}
	}
	in.mu.Unlock()
	for _, f := range due {
		switch f.Kind {
		case Delay:
			time.Sleep(f.Sleep)
		case Cancel:
			if f.Cancel != nil {
				f.Cancel()
			}
		case Panic:
			v := f.Panic
			if v == nil {
				v = fmt.Sprintf("faults: injected panic at %s (%s)", site, label)
			}
			panic(v)
		}
	}
}

// shouldFire decides whether f's current hit fires. Called with the lock
// held (the seeded generator is not concurrency-safe).
func (in *Injector) shouldFire(f *armed) bool {
	if f.Prob > 0 {
		return in.rng.Float64() < f.Prob
	}
	after := f.After
	if after <= 0 {
		after = 1
	}
	if f.hits == after {
		return true
	}
	return f.Every > 0 && f.hits > after && (f.hits-after)%f.Every == 0
}

// Hits reports how many matching hits fault i has seen.
func (in *Injector) Hits(i int) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults[i].hits
}

// Fired reports how many times fault i has fired.
func (in *Injector) Fired(i int) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults[i].fired
}
