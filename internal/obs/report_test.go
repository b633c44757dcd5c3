package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is a deterministic time source: each reading is 1ms after the
// previous one.
type testClock struct {
	mu sync.Mutex
	at time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = c.at.Add(time.Millisecond)
	return c.at
}

func newTestBuilder() *ReportBuilder {
	return newReportBuilder((&testClock{at: time.Unix(1000, 0)}).now)
}

func TestProfileAggregation(t *testing.T) {
	b := newTestBuilder()
	b.Event(Event{Kind: EvRunStart, Label: "RBFS"})
	for i := 1; i <= 20; i++ {
		b.Event(Event{Kind: EvGoalTest, Seq: i, Goal: i == 20})
		b.Event(Event{Kind: EvExpand, Seq: i, Depth: i % 3, N: 4, Elapsed: 200 * time.Microsecond})
		b.Event(Event{Kind: EvOpApply, Label: "rename_att[Emp,nm->Name]", Goal: true, Elapsed: 40 * time.Microsecond})
		b.Event(Event{Kind: EvOpApply, Label: "drop[Emp,dept]", Goal: false, Elapsed: 10 * time.Microsecond})
		b.Event(Event{Kind: EvCacheMiss, Label: "cosine"})
		b.Event(Event{Kind: EvCacheHit, Label: "cosine"})
		b.Event(Event{Kind: EvMemoHit})
	}
	b.Event(Event{Kind: EvRunFinish, Label: "RBFS", Goal: true, N: 20, Elapsed: 123 * time.Millisecond})

	var r RunReport
	b.Fill(&r)
	p := r.Perf
	if p == nil {
		t.Fatal("no profile section")
	}
	if p.Expansions != 20 || p.ExpandNS != int64(4*time.Millisecond) || p.Moves != 80 {
		t.Fatalf("expansions/expand_ns/moves = %d/%d/%d", p.Expansions, p.ExpandNS, p.Moves)
	}
	want := []DepthProfile{{0, 6, 24}, {1, 7, 28}, {2, 7, 28}}
	if len(p.Depths) != len(want) {
		t.Fatalf("depth rows = %+v, want %+v", p.Depths, want)
	}
	for i := range want {
		if p.Depths[i] != want[i] {
			t.Fatalf("depth rows = %+v, want %+v", p.Depths, want)
		}
	}
	// Per-operator aggregation keys by family and keeps proposed vs applied.
	if ra := p.Ops["rename_att"]; ra != (OpProfile{Proposed: 20, Applied: 20, ApplyTotalNS: int64(800 * time.Microsecond), ApplyMaxNS: int64(40 * time.Microsecond)}) {
		t.Fatalf("rename_att profile = %+v", ra)
	}
	if dr := p.Ops["drop"]; dr.Proposed != 20 || dr.Applied != 0 {
		t.Fatalf("drop profile = %+v", dr)
	}
	// Stride 1: one checkpoint per goal test, taken before that state's
	// cache and memo lookups.
	if len(p.Timeline) != 20 || p.Stride != 1 {
		t.Fatalf("timeline = %d checkpoints at stride %d, want 20 at 1", len(p.Timeline), p.Stride)
	}
	if last := p.Timeline[19]; last.Examined != 20 || last.CacheHits != 19 || last.CacheMisses != 19 || last.MemoHits != 19 {
		t.Fatalf("last checkpoint = %+v", last)
	}
	if len(p.Slices) != 20 || p.Slices[0].DurNS != int64(200*time.Microsecond) || p.Slices[0].Moves != 4 {
		t.Fatalf("slices = %d, first %+v", len(p.Slices), p.Slices[0])
	}
	if len(r.Caches) != 1 || r.Caches[0] != NewCacheReport("cosine", 20, 20) {
		t.Fatalf("caches = %+v", r.Caches)
	}
	if r.Memo == nil || r.Memo.Hits != 20 || r.Memo.Misses != 0 {
		t.Fatalf("memo = %+v", r.Memo)
	}
	if s := r.Span.Children; len(s) != 1 || s[0].Outcome != "solved" || s[0].Examined != 20 || s[0].DurationNS != int64(123*time.Millisecond) {
		t.Fatalf("search span = %+v", s)
	}
}

// TestProfileClockReads: the builder reads the clock only for events that
// land on the span tree, the timeline or the expansion log.
func TestProfileClockReads(t *testing.T) {
	reads := 0
	b := newReportBuilder(func() time.Time { reads++; return time.Unix(0, 0) })
	reads = 0
	for _, e := range []Event{
		{Kind: EvCacheHit, Label: "cosine"}, {Kind: EvCacheMiss, Label: "cosine"},
		{Kind: EvMemoHit}, {Kind: EvMemoMiss}, {Kind: EvMove, Label: "drop[R,a]"},
		{Kind: EvOpApply, Label: "drop[R,a]", Goal: true},
	} {
		b.Event(e)
	}
	if reads != 0 {
		t.Fatalf("lookup events read the clock %d times", reads)
	}
	for i := 0; i < 2*maxCheckpoints; i++ {
		b.Event(Event{Kind: EvGoalTest})
	}
	if reads >= 2*maxCheckpoints {
		t.Fatalf("%d goal tests read the clock %d times; checkpoints are strided", 2*maxCheckpoints, reads)
	}
}

func TestProfileCheckpointCompaction(t *testing.T) {
	b := newTestBuilder()
	for i := 1; i <= 3*maxCheckpoints; i++ {
		b.Event(Event{Kind: EvGoalTest, Seq: i})
	}
	var r RunReport
	b.Fill(&r)
	tl := r.Perf.Timeline
	if len(tl) >= maxCheckpoints {
		t.Fatalf("checkpoints = %d, must stay under the %d cap", len(tl), maxCheckpoints)
	}
	if r.Perf.Stride < 2 {
		t.Fatalf("stride = %d, must have doubled", r.Perf.Stride)
	}
	// Offsets stay strictly increasing after compaction.
	for i := 1; i < len(tl); i++ {
		if tl[i].OffsetNS <= tl[i-1].OffsetNS {
			t.Fatalf("checkpoint offsets not increasing at %d", i)
		}
	}
}

// TestProfileEmptyReport: a builder that saw no search work contributes
// its span root but no profile section.
func TestProfileEmptyReport(t *testing.T) {
	r := RunReport{Schema: ReportSchema}
	NewReportBuilder().Fill(&r)
	if r.Perf != nil || r.Span == nil || len(r.Span.Children) != 0 {
		t.Fatalf("empty builder filled profile %+v, span %+v", r.Perf, r.Span)
	}
	var buf bytes.Buffer
	if err := WriteRunReport(&buf, &r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"profile"`) {
		t.Fatalf("empty report carries a profile section:\n%s", buf.String())
	}
}

// TestProfileConcurrent is meaningful under -race: portfolio members share
// one builder.
func TestProfileConcurrent(t *testing.T) {
	b := NewReportBuilder()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 1; j <= 500; j++ {
				b.Event(Event{Kind: EvGoalTest, Seq: j})
				b.Event(Event{Kind: EvExpand, Depth: id, N: 2, Elapsed: time.Microsecond})
				b.Event(Event{Kind: EvOpApply, Label: "drop[R,a]", Goal: true, Elapsed: time.Microsecond})
			}
		}(i)
	}
	wg.Wait()
	var r RunReport
	b.Fill(&r)
	var expansions int64
	for _, d := range r.Perf.Depths {
		expansions += d.Expansions
	}
	if r.Perf.Expansions != 2000 || expansions != 2000 || r.Perf.Ops["drop"].Proposed != 2000 {
		t.Fatalf("expansions = %d (depth rows sum %d), drop proposed = %d, want 2000 each",
			r.Perf.Expansions, expansions, r.Perf.Ops["drop"].Proposed)
	}
}

// TestReportBuilderNestsSearchUnderMember: a search span nests under the
// open member span of its label, whatever order racing members start
// their searches in; members sharing a label get one search each; a search
// outside a portfolio hangs off the root.
func TestReportBuilderNestsSearchUnderMember(t *testing.T) {
	b := newTestBuilder()
	for _, e := range []Event{
		{Kind: EvMemberStart, Label: "RBFS/cosine"},
		{Kind: EvMemberStart, Label: "RBFS/h3"},
		{Kind: EvMemberStart, Label: "IDA/h1"},
		{Kind: EvMemberStart, Label: "IDA/h1"},
		{Kind: EvRunStart, Label: "RBFS/h3"},
		{Kind: EvRunStart, Label: "IDA/h1"},
		{Kind: EvRunStart, Label: "RBFS/cosine"},
		{Kind: EvRunStart, Label: "IDA/h1"},
		{Kind: EvRunFinish, Label: "RBFS/cosine", N: 5, Err: errors.New("canceled")},
		{Kind: EvRunFinish, Label: "RBFS/h3", N: 9, Goal: true},
		{Kind: EvRunFinish, Label: "IDA/h1", N: 3, Err: errors.New("canceled")},
		{Kind: EvRunFinish, Label: "IDA/h1", N: 4, Err: errors.New("canceled")},
		{Kind: EvMemberWin, Label: "RBFS/h3", N: 9, Goal: true},
		{Kind: EvMemberCancel, Label: "RBFS/cosine", N: 5},
		{Kind: EvMemberCancel, Label: "IDA/h1", N: 3},
		{Kind: EvMemberCancel, Label: "IDA/h1", N: 4},
		{Kind: EvRunStart, Label: "RBFS"},
		{Kind: EvRunFinish, Label: "RBFS", N: 2, Goal: true},
	} {
		b.Event(e)
	}
	var r RunReport
	b.Fill(&r)
	members := r.Span.Children
	if len(members) != 5 {
		t.Fatalf("root children = %d, want 4 members and 1 search", len(members))
	}
	for _, m := range members[:4] {
		if len(m.Children) != 1 {
			t.Fatalf("member %s holds %d searches, want 1", m.Name, len(m.Children))
		}
		s := m.Children[0]
		if s.Name != m.Name || s.Examined != m.Examined {
			t.Fatalf("member %s (examined %d) holds search %s (examined %d)", m.Name, m.Examined, s.Name, s.Examined)
		}
		if (s.Outcome == "solved") != (m.Outcome == "win") {
			t.Fatalf("member %s [%s] holds search [%s]", m.Name, m.Outcome, s.Outcome)
		}
	}
	if s := members[4]; s.Kind != "search" || s.Name != "RBFS" || s.Outcome != "solved" {
		t.Fatalf("lone search = %+v", s)
	}
}
