package main

import (
	"encoding/json"
	"fmt"
	"io"

	"tupelo/internal/obs"
)

// chromeEvent is one Chrome trace-event record (the subset chrome://tracing
// and Perfetto need): "X" complete events for spans and "i" instants for
// flight records. Timestamps and durations are microseconds, per the
// format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeCmd converts a run report's span tree or a flight dump's rings into
// Chrome trace-event JSON.
func chromeCmd(w io.Writer, in *input) error {
	var events []chromeEvent
	switch in.kind {
	case "report":
		r := in.report
		if r.Span == nil {
			return fmt.Errorf("chrome: report has no span tree (run without a report builder)")
		}
		tid := 0
		spanEvents(r.Span, 1, &tid, &events)
	case "flight":
		tids := map[string]int{}
		for _, rec := range in.flight.Records {
			tid, ok := tids[rec.Ring]
			if !ok {
				tid = len(tids)
				tids[rec.Ring] = tid
			}
			events = append(events, chromeEvent{
				Name:  rec.Kind,
				Phase: "i",
				Scope: "t",
				TS:    float64(rec.AtNS) / 1e3,
				PID:   1,
				TID:   tid,
				Args:  map[string]any{"ring": rec.Ring, "seq": rec.Seq, "a": rec.A, "b": rec.B},
			})
		}
	default:
		return fmt.Errorf("chrome: need a run report or flight dump, got %s", in.kind)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// spanEvents flattens the span tree depth-first, one thread row per
// root-level branch so concurrent members render side by side.
func spanEvents(s *obs.Span, depth int, tid *int, out *[]chromeEvent) {
	if depth <= 2 {
		// New thread row for the root and each of its direct children
		// (portfolio members / searches run concurrently).
		*tid++
	}
	myTID := *tid
	dur := float64(s.DurationNS) / 1e3
	if dur <= 0 {
		dur = 1 // zero-length spans vanish in the viewer
	}
	name := s.Kind + " " + s.Name
	if s.Outcome != "" {
		name += " [" + s.Outcome + "]"
	}
	*out = append(*out, chromeEvent{
		Name:  name,
		Phase: "X",
		TS:    float64(s.StartNS) / 1e3,
		Dur:   dur,
		PID:   1,
		TID:   myTID,
		Args:  map[string]any{"examined": s.Examined, "error": s.Error},
	})
	for _, c := range s.Children {
		spanEvents(c, depth+1, tid, out)
	}
}
