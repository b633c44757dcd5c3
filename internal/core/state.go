// Package core implements the TUPELO data mapping engine of "Data Mapping
// as Search" (EDBT 2006): given critical instances s and t of a source and
// target schema (the Rosetta Stone principle, §2.2), it searches the space
// of transformations of s under the language L (package fira) until a state
// containing t is reached (§2.3). The transformation path is the discovered
// mapping expression.
package core

import (
	"tupelo/internal/heuristic"
	"tupelo/internal/relation"
	"tupelo/internal/search"
)

// dbState is the search state of a relational database. key is the
// database's compact 128-bit identity (relation.Database.Key), computed once
// when the state is created; it is the state table's key for the state.
// Per-relation canonical forms are memoized on the relations themselves, so
// keying a successor that replaced one relation copy-on-write only pays for
// hashing that relation; the shared relations reuse their cached hashes.
//
// Each discovery run keeps one canonical dbState per key in its stateTable
// and hands the search only canonical states, so the search's identity,
// pointer equality, is key equality. The state itself carries everything
// the run derives about its key: its heuristic estimate, its
// move list and its goal verdict. IDA* and RBFS re-examine states
// relentlessly — on the paper's exp1 workload 96% of expansions are of a
// state already expanded — and each revisit reads these fields instead of
// recomputing. A run's states are read and written only by the run's own
// goroutine (DESIGN.md §10), so the fields are plain.
type dbState struct {
	db  *relation.Database
	key string

	// est is the state's heuristic estimate; nil until the state's creator
	// (or, for the start state, the search's first lookup) sets it.
	est *estimate
	// moves is the state's finished move list, set by its first expansion
	// (never nil after it); nil before that, and always nil under a
	// FaultHook, whose injected faults must fire on every expansion.
	moves []search.Move
	// goal is the state's goal verdict: verdictUntested until its first
	// goal test (mappingProblem.IsGoal), then verdictNotGoal or verdictGoal.
	// The goal test has no fault site, so the verdict stays on under a
	// FaultHook.
	goal verdict
}

// verdict is a state's stored goal-test outcome.
type verdict uint8

// Goal verdicts stored in dbState.goal.
const (
	verdictUntested verdict = iota
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

// stateTable maps each state key of one discovery run to the run's
// canonical *dbState. Lookups happen only when a successor is created — a
// memoized expansion returns its canonical states without touching the
// table.
type stateTable map[string]*dbState

// intern returns the canonical state for key, creating it over db when the
// key is new; created reports which. The creator owns estimating the new
// state.
func (t stateTable) intern(db *relation.Database, key string) (s *dbState, created bool) {
	if s, ok := t[key]; ok {
		return s, false
	}
	s = &dbState{db: db, key: key}
	t[key] = s
	return s, true
}
