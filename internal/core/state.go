// Package core implements the TUPELO data mapping engine of "Data Mapping
// as Search" (EDBT 2006): given critical instances s and t of a source and
// target schema (the Rosetta Stone principle, §2.2), it searches the space
// of transformations of s under the language L (package fira) until a state
// containing t is reached (§2.3). The transformation path is the discovered
// mapping expression.
package core

import (
	"sync"
	"sync/atomic"

	"tupelo/internal/heuristic"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// dbState adapts a relational database to the search.State interface.
// The key is the database's compact 128-bit identity (relation.Database.Key),
// computed once when the state is created. Per-relation canonical forms are
// memoized on the relations themselves, so keying a successor that replaced
// one relation copy-on-write only pays for hashing that relation; the shared
// relations reuse their cached hashes.
//
// Each discovery run keeps one canonical dbState per key in its stateTable
// and hands the search only canonical states, so the state itself carries
// everything the run derives about its key: its heuristic estimate, its
// move list and its goal verdict. IDA* and RBFS re-examine states
// relentlessly — on the paper's exp1 workload 96% of expansions are of a
// state already expanded — and each revisit reads these fields instead of
// recomputing. All three facts are deterministic per key and published
// through atomics, so goroutines that race to publish agree.
type dbState struct {
	db  *relation.Database
	key string

	// est is the state's heuristic estimate; nil until the state's creator
	// (or, for the start state, the search's first lookup) publishes it.
	est atomic.Pointer[estimate]
	// moves is the state's finished move list, published by its first
	// expansion; nil before that, and always nil under a FaultHook, whose
	// injected faults must fire on every expansion.
	moves atomic.Pointer[[]search.Move]
	// goal is the state's goal verdict: verdictUntested until its first
	// goal test (mappingProblem.IsGoal), then verdictNotGoal or verdictGoal.
	// The goal test has no fault site, so the verdict stays on under a
	// FaultHook.
	goal atomic.Uint32
}

// Goal verdicts stored in dbState.goal.
const (
	verdictUntested uint32 = iota
	verdictNotGoal
	verdictGoal
)

// estimate is a state's heuristic value and, when the run's evaluator is
// incremental and the value was delta-merged from the parent, the state's
// aggregate: its successors derive their estimates by delta-merging against
// it. The aggregate is nil for estimates computed from scratch; expanding
// such a state seeds one for that expansion.
type estimate struct {
	h   int
	agg heuristic.Agg
}

// Key implements search.State.
func (s *dbState) Key() string { return s.key }

// tableStripes is the number of independently locked parts of a stateTable.
// Successor workers and parallel-search shards create states concurrently;
// keys are uniform hashes, so a stripe per key byte value modulo this count
// keeps them off each other's locks. Must be a power of two.
const tableStripes = 16

// stateTable maps each state key of one discovery run to the run's
// canonical *dbState. It is shared by the run's successor pool and, under
// ParallelSearch, by every shard. Lookups happen only when a successor is
// created — a memoized expansion returns its canonical states without
// touching the table.
type stateTable struct {
	stripes [tableStripes]struct {
		mu sync.Mutex
		m  map[string]*dbState
	}
}

// intern returns the canonical state for key, creating it over db when the
// key is new; created reports which. The creator owns estimating the new
// state.
func (t *stateTable) intern(db *relation.Database, key string) (s *dbState, created bool) {
	st := &t.stripes[key[0]&(tableStripes-1)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.m[key]; ok {
		return s, false
	}
	if st.m == nil {
		st.m = make(map[string]*dbState)
	}
	s = &dbState{db: db, key: key}
	st.m[key] = s
	return s, true
}
