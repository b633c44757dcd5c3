package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// This file implements the search flight recorder: an always-on forensic
// event log modeled on an aircraft flight data recorder. Every search loop
// (one per run, so one per racing portfolio member) owns a ring buffer of
// compact binary records; recording is a
// couple of plain stores into the ring — no locks, single-digit
// nanoseconds — so it can stay enabled on production runs. A ring starts at
// flightRingStart records and doubles up to the recorder's ring size as it
// fills, so a short run pays for the records it writes, not for the
// capacity a long one needs; a ring at its cap records without allocating. When a run dies
// (panic, memory-budget abort, deadline) the rings hold the last ringSize
// events of every goroutine leading up to the failure, and are dumped as a
// JSONL stream (`tupelo-flight/v2`) that cmd/tupelo-trace can analyze.
// DESIGN.md §11 documents the overhead methodology.
//
// Concurrency model: each FlightRing is written by exactly one goroutine
// (the one that asked for it), so the hot path needs no atomics; the dump
// side reads only at quiescent points — after the writers have been joined
// (WaitGroup/channel edges establish the happens-before) — which is how a
// real flight recorder is read too. RequestDump from a dying goroutine only
// marks the cause; the actual dump is flushed at the top of the engine once
// every writer has returned.

// FlightEvent is one compact binary record: 24 bytes, written in place into
// the ring. A search loop records four kinds, with Seq, A and B as payload:
//
//	EvRunStart   none
//	EvGoalTest   Seq the examined ordinal, A the depth g, B 1 on a goal
//	EvExpand     Seq the examined ordinal, A the depth g, B the move count
//	EvRunFinish  Seq the states examined, A the abort cause code (0 when
//	             solved; see CauseCode), B the solution depth
//
// At is nanoseconds since the recorder's epoch, refreshed from the wall
// clock every flightStampInterval records (reading the clock per event
// would cost more than the whole record — see DESIGN.md §11), so it is
// coarse: accurate to the duration of the last few dozen events.
type FlightEvent struct {
	At   int64
	Seq  uint32
	A    int32
	B    int32
	Kind EventKind
}

// record renders one ring record as the JSONL record type, each payload
// field under the name a tracer gives it for the same kind.
func (e FlightEvent) record(ring int, label string, i uint64) EventRecord {
	rec := EventRecord{Kind: e.Kind.String(), Label: label, Ring: ring, I: i, AtNS: e.At}
	switch e.Kind {
	case EvGoalTest:
		rec.Seq, rec.Depth, rec.Goal = int(e.Seq), int(e.A), e.B == 1
	case EvExpand:
		rec.Seq, rec.Depth, rec.N = int(e.Seq), int(e.A), int(e.B)
	case EvRunFinish:
		rec.N, rec.Depth, rec.Goal = int(e.Seq), int(e.B), e.A == 0
		if e.A > 0 && int(e.A) < len(causeNames) {
			rec.Err = causeNames[e.A]
		}
	}
	return rec
}

// causeNames is the abort-cause vocabulary of search.Error.Cause, indexed
// by the code an EvRunFinish flight record carries; code 0 is a solved run.
var causeNames = [...]string{"", "panic", "deadline", "canceled", "memory", "limit", "exhausted", "error"}

// CauseCode is the flight-record code of an abort cause; a name outside the
// vocabulary gets the code of "error".
func CauseCode(cause string) int32 {
	for i := 1; i < len(causeNames); i++ {
		if causeNames[i] == cause {
			return int32(i)
		}
	}
	return int32(len(causeNames) - 1)
}

// flightStampInterval is how many records a ring writes between wall-clock
// refreshes of its coarse timestamp. Power of two.
const flightStampInterval = 64

// flightRingStart is the number of records a new ring allocates; it doubles
// up to the recorder's ring size as the ring fills. It must be a power of
// two and a multiple of flightStampInterval: every growth point is then a
// multiple of flightStampInterval, so Record grows the ring only inside the
// branch that refreshes the clock.
const flightRingStart = 64

// DefaultFlightRingSize is the per-goroutine ring capacity when
// NewFlightRecorder is given a non-positive size: 4096 records ≈ 96 KiB once
// a ring has filled. A ring allocates flightRingStart records up front and
// grows to this cap only as a run writes them.
const DefaultFlightRingSize = 4096

// FlightRecorder hands out per-goroutine rings and assembles dumps. A nil
// *FlightRecorder hands out nil rings, whose Record is a bare nil-check —
// the disabled configuration costs one branch per event.
type FlightRecorder struct {
	mu    sync.Mutex
	start time.Time
	size  int
	rings []*FlightRing

	cause     string
	requested bool
	autoDump  io.Writer
	dumpOnce  sync.Once
}

// NewFlightRecorder returns a recorder whose rings hold up to ringSize
// records each (rounded up to a power of two; <= 0 means
// DefaultFlightRingSize). Rings start smaller and grow to that cap on demand.
func NewFlightRecorder(ringSize int) *FlightRecorder {
	if ringSize <= 0 {
		ringSize = DefaultFlightRingSize
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	return &FlightRecorder{start: time.Now(), size: size}
}

// SetAutoDump directs automatic dumps (RequestDump + FlushDump) to w.
func (r *FlightRecorder) SetAutoDump(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.autoDump = w
	r.mu.Unlock()
}

// Ring allocates a new ring owned by the calling goroutine: min(ring size,
// flightRingStart) records, doubled by Record up to the ring size as the
// ring fills. Rings are never reclaimed — a recorder is scoped to one run or
// one portfolio race — and a nil recorder returns a nil ring, whose Record
// is a no-op.
func (r *FlightRecorder) Ring(label string) *FlightRing {
	if r == nil {
		return nil
	}
	n := min(r.size, flightRingStart)
	g := &FlightRing{
		rec:   make([]FlightEvent, n),
		mask:  uint64(n - 1),
		label: label,
		r:     r,
	}
	r.mu.Lock()
	r.rings = append(r.rings, g)
	r.mu.Unlock()
	return g
}

// RequestDump marks the recorder for an automatic dump with the given cause
// (the first cause wins). It is safe to call from a dying goroutine while
// other goroutines still record: nothing is read from the rings here — the
// dump itself happens in FlushDump, once every recording run has returned.
func (r *FlightRecorder) RequestDump(cause string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.requested {
		r.requested, r.cause = true, cause
	}
	r.mu.Unlock()
}

// DumpRequested reports whether an automatic dump is pending and its cause.
func (r *FlightRecorder) DumpRequested() (string, bool) {
	if r == nil {
		return "", false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cause, r.requested
}

// FlushDump writes the dump to the SetAutoDump writer if RequestDump was
// called, at most once per recorder. Call it only at quiescent points: every
// ring's writer goroutine must have returned (discovery calls it after its
// search returns, a portfolio race after joining its members).
func (r *FlightRecorder) FlushDump() {
	if r == nil {
		return
	}
	r.mu.Lock()
	w, requested := r.autoDump, r.requested
	r.mu.Unlock()
	if !requested || w == nil {
		return
	}
	r.dumpOnce.Do(func() { _ = r.Dump(w) })
}

// FlightHeader is the first line of a dump.
type FlightHeader struct {
	Schema   string    `json:"schema"`
	Start    time.Time `json:"start"`
	RingSize int       `json:"ring_size"`
	Rings    int       `json:"rings"`
	Cause    string    `json:"cause,omitempty"`
}

// FlightSchema identifies the dump format: a JSONL stream whose first line
// is a FlightHeader and whose remaining lines are EventRecords, ring by
// ring (Ring numbers them from 1), oldest first within each ring. Fields
// may be added, never renamed; v2 replaced v1's opaque a/b payload fields
// with the tracer's names and its string ring field with a ring number.
const FlightSchema = "tupelo-flight/v2"

// Dump writes the recorder contents as a tupelo-flight/v2 JSONL stream:
// header line, then every ring's surviving records oldest-first. The caller
// must guarantee quiescence (no goroutine still recording); dumps taken
// while writers run would be torn.
func (r *FlightRecorder) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rings := append([]*FlightRing(nil), r.rings...)
	hdr := FlightHeader{
		Schema:   FlightSchema,
		Start:    r.start,
		RingSize: r.size,
		Rings:    len(rings),
		Cause:    r.cause,
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for n, g := range rings {
		lo := uint64(0)
		if g.pos > uint64(len(g.rec)) {
			lo = g.pos - uint64(len(g.rec))
		}
		for i := lo; i < g.pos; i++ {
			if err := enc.Encode(g.rec[i&g.mask].record(n+1, g.label, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Records returns a copy of one ring's surviving records, oldest first, for
// tests and programmatic consumers. Same quiescence contract as Dump.
func (r *FlightRecorder) Records(label string) []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []FlightEvent
	for _, g := range r.rings {
		if g.label != label {
			continue
		}
		lo := uint64(0)
		if g.pos > uint64(len(g.rec)) {
			lo = g.pos - uint64(len(g.rec))
		}
		for i := lo; i < g.pos; i++ {
			out = append(out, g.rec[i&g.mask])
		}
	}
	return out
}

// FlightRing is one goroutine's ring buffer. All writes must come from the
// goroutine that obtained the ring; that single-writer discipline is what
// lets Record skip atomics entirely.
type FlightRing struct {
	rec    []FlightEvent
	mask   uint64
	pos    uint64 // total records written; pos & mask is the next slot
	coarse int64  // ns since recorder epoch, refreshed every flightStampInterval
	label  string
	r      *FlightRecorder
}

// Record appends one event. On a nil ring (recorder disabled) it is a single
// nil-check. The hot path is three plain stores plus an amortized wall-clock
// read every flightStampInterval records; see BenchmarkFlightRecord. A ring
// that is full but below its cap doubles in that same amortized branch:
// before the first wrap record i sits at index i under either mask, so the
// old records copy over in place.
func (g *FlightRing) Record(k EventKind, seq uint32, a, b int32) {
	if g == nil {
		return
	}
	if g.pos&(flightStampInterval-1) == 0 {
		g.coarse = int64(time.Since(g.r.start))
		if g.pos == uint64(len(g.rec)) && len(g.rec) < g.r.size {
			rec := make([]FlightEvent, 2*len(g.rec))
			copy(rec, g.rec)
			g.rec, g.mask = rec, uint64(len(rec)-1)
		}
	}
	e := &g.rec[g.pos&g.mask]
	e.At = g.coarse
	e.Seq = seq
	e.A = a
	e.B = b
	e.Kind = k
	g.pos++
}

// Len returns the number of records currently held (≤ ring size).
func (g *FlightRing) Len() int {
	if g == nil {
		return 0
	}
	if g.pos > uint64(len(g.rec)) {
		return len(g.rec)
	}
	return int(g.pos)
}
