package main

import (
	"encoding/json"
	"fmt"
	"io"

	"tupelo/internal/obs"
)

// chromeEvent is one Chrome trace-event record (the subset chrome://tracing
// and Perfetto need): "X" complete events for spans and expansions, "C"
// counters, "i" instants for flight records and "M" metadata naming thread
// rows. Timestamps and durations are microseconds, per the format.
type chromeEvent struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur,omitempty"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Scope string  `json:"s,omitempty"`
	Args  any     `json:"args,omitempty"`
}

// us converts nanoseconds to the format's microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// chromeCmd converts a run report (span tree and profile) or a flight dump
// (one thread row per ring) into Chrome trace-event JSON.
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
		if r.Perf != nil {
			events = append(events, profileEvents(r.Perf, tid+1)...)
		}
	case "flight":
		for _, ring := range ringsOf(in.flight.Records) {
			tid := ring[0].Ring
			events = append(events, threadName(tid, ring[0].Label))
			for _, rec := range ring {
				events = append(events, chromeEvent{
					Name: rec.Kind, Phase: "i", Scope: "t", TS: us(rec.AtNS), PID: 1, TID: tid, Args: rec,
				})
			}
		}
	default:
		return fmt.Errorf("chrome: need a run report or flight dump, got %s", in.kind)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

func threadName(tid int, name string) chromeEvent {
	return chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: tid, Args: map[string]any{"name": name}}
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
	dur := us(s.DurationNS)
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
		TS:    us(s.StartNS),
		Dur:   dur,
		PID:   1,
		TID:   myTID,
		Args:  map[string]any{"examined": s.Examined, "error": s.Error},
	})
	for _, c := range s.Children {
		spanEvents(c, depth+1, tid, out)
	}
}

// profileEvents draws a report's profile: the expansion log on thread row
// tid, and counter tracks for states examined, states/sec, and the cache
// and memo hit rates.
func profileEvents(p *obs.RunProfile, tid int) []chromeEvent {
	var events []chromeEvent
	if len(p.Slices) > 0 {
		events = append(events, threadName(tid, "expansions"))
	}
	for _, s := range p.Slices {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("expand depth=%d", s.Depth), Phase: "X", PID: 1, TID: tid,
			TS: us(s.OffsetNS), Dur: us(s.DurNS),
			Args: map[string]any{"depth": s.Depth, "moves": s.Moves},
		})
	}
	prev := obs.ProfileCheckpoint{}
	for _, c := range p.Timeline {
		counter := func(name, key string, v any) {
			events = append(events, chromeEvent{Name: name, Phase: "C", TS: us(c.OffsetNS), PID: 1, Args: map[string]any{key: v}})
		}
		counter("states examined", "states", c.Examined)
		if c.OffsetNS > prev.OffsetNS {
			counter("states/sec", "rate", statesPerSec(prev, c))
		}
		if c.CacheHits+c.CacheMisses > 0 {
			counter("cache hit rate", "percent", hitPercent(c.CacheHits, c.CacheMisses))
		}
		if c.MemoHits+c.MemoMisses > 0 {
			counter("memo hit rate", "percent", hitPercent(c.MemoHits, c.MemoMisses))
		}
		prev = c
	}
	return events
}
