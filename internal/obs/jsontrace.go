package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventRecord is the JSONL form of one event, written by JSONTracer and by
// FlightRecorder.Dump: kind as its String name, error or abort cause as
// text, elapsed in nanoseconds, zero-valued fields omitted. Ring, I and
// AtNS are set only on flight records: the ring's number in its dump, the
// record's ordinal within the ring, and its coarse offset from the
// recorder's epoch.
type EventRecord struct {
	Kind      string `json:"kind"`
	Label     string `json:"label,omitempty"`
	Seq       int    `json:"seq,omitempty"`
	N         int    `json:"n,omitempty"`
	Depth     int    `json:"depth,omitempty"`
	Goal      bool   `json:"goal,omitempty"`
	Err       string `json:"err,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
	Ring      int    `json:"ring,omitempty"`
	I         uint64 `json:"i,omitempty"`
	AtNS      int64  `json:"at_ns,omitempty"`
}

// JSONTracer writes the full event stream, one EventRecord per line: the
// transcript format of tupelo discover -trace-json, which tupelo-trace
// reads. A mutex serializes writes; a JSONTracer is safe for concurrent
// use. The first write error stops the stream and is kept for Err.
type JSONTracer struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONTracer returns a Tracer streaming JSON event objects to w.
func NewJSONTracer(w io.Writer) *JSONTracer {
	return &JSONTracer{enc: json.NewEncoder(w)}
}

// Event implements Tracer.
func (t *JSONTracer) Event(e Event) {
	rec := EventRecord{
		Kind:      e.Kind.String(),
		Label:     e.Label,
		Seq:       e.Seq,
		N:         e.N,
		Depth:     e.Depth,
		Goal:      e.Goal,
		ElapsedNS: int64(e.Elapsed),
	}
	if e.Err != nil {
		rec.Err = e.Err.Error()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.enc.Encode(rec)
	}
}

// Err returns the first error writing the stream, or nil.
func (t *JSONTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
