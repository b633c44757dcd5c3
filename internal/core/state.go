// Package core implements the TUPELO data mapping engine of "Data Mapping
// as Search" (EDBT 2006): given critical instances s and t of a source and
// target schema (the Rosetta Stone principle, §2.2), it searches the space
// of transformations of s under the language L (package fira) until a state
// containing t is reached (§2.3). The transformation path is the discovered
// mapping expression.
package core

import (
	"fmt"

	"tupelo/internal/fira"
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
// A state created from a ρ^att or π̄ preview is pending: it holds its parent
// state, the operator and the previewed hash instead of a database, and its
// estimate was read from the operator's edit of the parent relation's
// fragment against the parent's aggregate. Every reader of the database
// goes through database(), which builds a pending state on first use —
// normally its first goal test, when the search enters it (DESIGN.md §8,
// "Building on entry").
//
// Each discovery run keeps one canonical dbState per key in its stateTable
// and hands the search only canonical states, so the search's identity,
// pointer equality, is key equality. The state itself carries everything
// the run derives about its key: its heuristic estimate, its
// move list and its goal verdict. IDA* and RBFS re-examine states
// relentlessly — on the paper's exp1 workload 96% of expansions are of a
// state already expanded — and each revisit reads these fields instead of
// recomputing. A run's states are read and written only by the run's own
// goroutine (DESIGN.md §10), so the fields are plain. The aggregate the
// estimates of a state's successors read lives only for the state's
// expansion (mappingProblem.Successors), so a state keeps none; the struct
// is 128 B, a size class of its own.
type dbState struct {
	// db is the state's database; nil while the state is pending. Read it
	// through database().
	db  *relation.Database
	key string

	// A pending state's recipe, cleared by its build: the operator that
	// creates it from from's database, and the previewed hash of the
	// relation the operator rebuilds.
	from *dbState
	op   fira.Op
	hash relation.ChildHash

	// h is the state's heuristic estimate, valid once estimated is set:
	// by the state's creator or, for the start state, the search's first
	// lookup.
	h int
	// moves is the state's finished move list, set by its first expansion
	// (never nil after it) and nil before that.
	moves []search.Move
	// goal is the state's goal verdict: verdictUntested until its first
	// goal test (mappingProblem.IsGoal), then verdictNotGoal or verdictGoal.
	goal      verdict
	estimated bool
}

// verdict is a state's stored goal-test outcome.
type verdict uint8

// Goal verdicts stored in dbState.goal.
const (
	verdictUntested verdict = iota
	verdictNotGoal
	verdictGoal
)

// database returns the state's database, building a pending state's from
// its parent's by the operator's own Apply: the first creator's database,
// exactly as an eager build would have made it. The rebuilt relation's memo
// is seeded with the previewed hash (the relation.SeedHash contract: the
// relation was just built on this goroutine, the run's only one), and the
// recipe is dropped. A state estimated before its build was estimated from
// its edit, so no fragment of the rebuilt relation exists yet: the build
// derives it from the parent's (ChildHash.Fragment) and seeds it
// (SeedFragment, the same contract), and the state's own expansion never
// encodes it. A state built at its creation, before its estimate (hL, h0,
// a π̄ that collapses rows), derives nothing.
func (s *dbState) database() *relation.Database {
	if s.db == nil {
		s.build()
	}
	return s.db
}

func (s *dbState) build() {
	// Only ρ^att and π̄ are deferred, and neither reads the λ registry.
	db, err := s.op.Apply(s.from.database(), nil)
	if err != nil {
		// The preview answers only where Apply succeeds.
		panic(fmt.Sprintf("core: building previewed state %s: %v", s.op, err))
	}
	if r, ok := db.Relation(s.hash.Parent().Name()); ok {
		r.SeedHash(s.hash)
		if s.estimated {
			r.SeedFragment(s.hash.Fragment())
		}
	}
	s.db = db
	s.from, s.op, s.hash = nil, nil, relation.ChildHash{}
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

// pend creates the pending state of a previewed child whose key the table
// lacks — the caller's lookup missed — with one map write. Its database is
// built from from's by op when first read (dbState.database).
func (t stateTable) pend(from *dbState, op fira.Op, c childPreview) *dbState {
	s := &dbState{key: string(c.key[:]), from: from, op: op, hash: c.hash}
	t[s.key] = s
	return s
}
