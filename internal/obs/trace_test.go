package obs

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestWriterTracerGoldenTranscript pins the full transcript for every
// EventKind: the rendered lines are a compatibility surface (tests and
// scripts grep them), and the high-frequency kinds must stay silent.
func TestWriterTracerGoldenTranscript(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriterTracer(&buf)
	for _, e := range []Event{
		{Kind: EvRunStart, Label: "RBFS"},
		{Kind: EvGoalTest, Seq: 1},
		{Kind: EvExpand, N: 2, Depth: 0},
		{Kind: EvMove, Label: "rename_att[Emp,nm->Name]"},
		{Kind: EvMove, Label: "drop[Emp,dept]"},
		{Kind: EvOpApply, Label: "rename_att[Emp,nm->Name]", Goal: true, Elapsed: time.Microsecond}, // silent
		{Kind: EvCacheMiss, Label: "cosine"}, // silent
		{Kind: EvCacheHit, Label: "cosine"},  // silent
		{Kind: EvMemoMiss},                   // silent
		{Kind: EvMemoHit},                    // silent
		{Kind: EvGoalTest, Seq: 2, Goal: true},
		{Kind: EvExpand, Err: errors.New("bad state")},
		{Kind: EvRunFinish, Label: "RBFS", Goal: true, N: 2, Elapsed: 5 * time.Millisecond},
		{Kind: EvRunFinish, Label: "IDA", N: 7, Err: errors.New("limit")},
		{Kind: EvMemberStart, Label: "RBFS/cosine"},
		{Kind: EvMemberWin, Label: "RBFS/cosine", N: 2, Elapsed: 5 * time.Millisecond},
		{Kind: EvMemberLose, Label: "IDA/h1", Err: errors.New("boom")},
		{Kind: EvMemberCancel, Label: "IDA/h2", Elapsed: 6 * time.Millisecond},
	} {
		tr.Event(e)
	}
	const want = `run RBFS: start
examine 1
expand: 2 moves
  move rename_att[Emp,nm->Name]
  move drop[Emp,dept]
examine 2: GOAL
expand: error: bad state
run RBFS: solved after 2 states (5ms)
run IDA: failed after 7 states: limit
member RBFS/cosine: start
member RBFS/cosine: WIN after 2 states (5ms)
member IDA/h1: lost: boom
member IDA/h2: cancelled (6ms)
`
	if got := buf.String(); got != want {
		t.Fatalf("transcript drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkTracerHotPath measures the per-event cost of the tracing
// instruments on the search hot path. The "nop" case is the default
// un-instrumented configuration — it must stay in the single-nanosecond
// range with zero allocations, because every examined state pays it; the
// live tracers bound what -trace-sample and -report cost.
func BenchmarkTracerHotPath(b *testing.B) {
	ev := Event{Kind: EvGoalTest, Seq: 1, Depth: 3}
	b.Run("nop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Nop.Event(ev)
		}
	})
	b.Run("sampled-1000", func(b *testing.B) {
		s := Sample(NewCollector(), 1000)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Event(ev)
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
