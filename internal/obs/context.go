package obs

import "context"

// Obs bundles the observability hooks a run can carry: a metrics registry,
// a tracer, a flight recorder, and the run's label. Any or all may be
// zero; nil instruments are no-ops, and Tracer() substitutes Nop for a nil
// tracer.
type Obs struct {
	// Metrics receives counters, gauges, and timers. Nil disables metrics.
	Metrics *Registry
	// Trace receives structured events. Nil disables tracing.
	Trace Tracer
	// Flight hands out per-goroutine forensic ring buffers. Nil disables
	// the flight recorder (rings come back nil; Record is a nil check).
	Flight *FlightRecorder
	// Label names the run in its flight ring and its run events: a
	// portfolio member's configuration, so racing members that share an
	// algorithm stay apart. Empty means the algorithm name. Metrics keep
	// the algorithm name either way.
	Label string
}

// Tracer returns the configured tracer, or Nop when none is set, so callers
// can emit unconditionally.
func (o Obs) Tracer() Tracer {
	if o.Trace == nil {
		return Nop
	}
	return o.Trace
}

// Enabled reports whether the metrics or tracing hook is configured. The
// flight recorder is deliberately excluded: it has its own (cheaper)
// nil-ring gating, and a flight-only run should not pay for the
// metrics/tracing instrumentation paths.
func (o Obs) Enabled() bool { return o.Metrics != nil || o.Trace != nil }

type ctxKey struct{}

// NewContext returns a context carrying the observability hooks, the
// mechanism by which higher layers (discovery, portfolio racing) hand
// metrics and tracing down to the search algorithms without widening every
// signature on the way.
func NewContext(ctx context.Context, o Obs) context.Context {
	if !o.Enabled() && o.Flight == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// FromContext extracts the observability hooks, or a zero Obs (nil metrics,
// Nop tracer) when the context carries none.
func FromContext(ctx context.Context) Obs {
	if ctx == nil {
		return Obs{}
	}
	o, _ := ctx.Value(ctxKey{}).(Obs)
	return o
}
