package obs

import (
	"io"
	"testing"
	"time"
)

// BenchmarkTracerHotPath measures the per-event cost of the tracing
// instruments on the search hot path. The "nop" case is the default
// un-instrumented configuration — it must stay in the single-nanosecond
// range with zero allocations, because every examined state pays it; the
// live tracers bound what -trace-json and -report cost.
func BenchmarkTracerHotPath(b *testing.B) {
	ev := Event{Kind: EvGoalTest, Seq: 1, Depth: 3}
	b.Run("nop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Nop.Event(ev)
		}
	})
	b.Run("json", func(b *testing.B) {
		jt := NewJSONTracer(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			jt.Event(ev)
		}
	})
	b.Run("report-builder", func(b *testing.B) {
		rb := NewReportBuilder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rb.Event(ev)
		}
	})
}

// TestNilInstrumentHotPathAllocs is the allocation contract behind the
// benchmarks above, enforced in a regular test so CI fails if the
// un-instrumented hot path ever starts allocating.
func TestNilInstrumentHotPathAllocs(t *testing.T) {
	var h *Histogram
	ev := Event{Kind: EvGoalTest, Seq: 1}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Microsecond)
		Nop.Event(ev)
	}); n != 0 {
		t.Fatalf("nil-instrument hot path allocates %.1f objects per op, want 0", n)
	}
}
