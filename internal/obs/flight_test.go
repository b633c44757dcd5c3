package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestFlightRingRecordAndRecords(t *testing.T) {
	r := NewFlightRecorder(8)
	g := r.Ring("main")
	for i := 0; i < 5; i++ {
		g.Record(EvGoalTest, uint32(i+1), int32(i), 0)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	recs := r.Records("main")
	if len(recs) != 5 {
		t.Fatalf("Records = %d, want 5", len(recs))
	}
	for i, e := range recs {
		if e.Kind != EvGoalTest || e.Seq != uint32(i+1) || e.A != int32(i) {
			t.Fatalf("record %d = %+v", i, e)
		}
	}
}

func TestFlightRingWrapKeepsNewest(t *testing.T) {
	r := NewFlightRecorder(8)
	g := r.Ring("main")
	for i := 1; i <= 20; i++ {
		g.Record(EvGoalTest, uint32(i), 0, 0)
	}
	recs := r.Records("main")
	if len(recs) != 8 {
		t.Fatalf("Records = %d, want 8 (ring size)", len(recs))
	}
	// Oldest surviving record is 13, newest is 20.
	for i, e := range recs {
		if want := uint32(13 + i); e.Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if g.Len() != 8 {
		t.Fatalf("Len = %d, want 8", g.Len())
	}
}

func TestFlightNilSafety(t *testing.T) {
	var r *FlightRecorder
	g := r.Ring("x")
	if g != nil {
		t.Fatalf("nil recorder returned non-nil ring")
	}
	g.Record(EvGoalTest, 1, 2, 3) // must not panic
	if g.Len() != 0 {
		t.Fatalf("nil ring Len = %d", g.Len())
	}
	r.RequestDump("panic")
	r.FlushDump()
	if err := r.Dump(io.Discard); err != nil {
		t.Fatalf("nil Dump: %v", err)
	}
	if _, ok := r.DumpRequested(); ok {
		t.Fatalf("nil recorder reports pending dump")
	}
}

func TestFlightDumpFormat(t *testing.T) {
	r := NewFlightRecorder(16)
	g := r.Ring("RBFS")
	g.Record(EvRunStart, 0, 0, 0)
	g.Record(EvGoalTest, 1, 2, 1)
	g.Record(EvRunFinish, 1, CauseCode("deadline"), 0)
	r.RequestDump("deadline")

	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatalf("empty dump")
	}
	var hdr map[string]any
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr["schema"] != FlightSchema {
		t.Fatalf("schema = %v, want %s", hdr["schema"], FlightSchema)
	}
	if hdr["cause"] != "deadline" {
		t.Fatalf("cause = %v, want deadline", hdr["cause"])
	}
	if hdr["rings"] != float64(1) || hdr["ring_size"] != float64(16) {
		t.Fatalf("rings/ring_size = %v/%v", hdr["rings"], hdr["ring_size"])
	}
	var kinds []string
	for sc.Scan() {
		var rec EventRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record: %v", err)
		}
		if rec.Ring != 1 || rec.Label != "RBFS" {
			t.Fatalf("ring/label = %d/%q", rec.Ring, rec.Label)
		}
		kinds = append(kinds, rec.Kind)
	}
	want := []string{"run-start", "goal-test", "run-finish"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}

// TestFlightDumpGolden pins a tupelo-flight/v2 dump: two rings sharing a
// label stay apart by number, and each kind's payload is written under the
// tracer's field names. The wall-clock fields are the only ones masked.
func TestFlightDumpGolden(t *testing.T) {
	r := NewFlightRecorder(8)
	for _, cause := range []string{"", "canceled"} {
		g := r.Ring("RBFS/cosine/k=24")
		g.Record(EvRunStart, 0, 0, 0)
		g.Record(EvGoalTest, 1, 0, 0)
		g.Record(EvExpand, 1, 0, 5)
		g.Record(EvGoalTest, 2, 1, 1)
		if cause == "" {
			g.Record(EvRunFinish, 2, 0, 1)
		} else {
			g.Record(EvRunFinish, 2, CauseCode(cause), 0)
		}
	}
	r.RequestDump("deadline")
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`"start":"[^"]*"`).ReplaceAllString(buf.String(), `"start":"T"`)
	got = regexp.MustCompile(`,"at_ns":\d+`).ReplaceAllString(got, "")
	const want = `{"schema":"tupelo-flight/v2","start":"T","ring_size":8,"rings":2,"cause":"deadline"}
{"kind":"run-start","label":"RBFS/cosine/k=24","ring":1}
{"kind":"goal-test","label":"RBFS/cosine/k=24","seq":1,"ring":1,"i":1}
{"kind":"expand","label":"RBFS/cosine/k=24","seq":1,"n":5,"ring":1,"i":2}
{"kind":"goal-test","label":"RBFS/cosine/k=24","seq":2,"depth":1,"goal":true,"ring":1,"i":3}
{"kind":"run-finish","label":"RBFS/cosine/k=24","n":2,"depth":1,"goal":true,"ring":1,"i":4}
{"kind":"run-start","label":"RBFS/cosine/k=24","ring":2}
{"kind":"goal-test","label":"RBFS/cosine/k=24","seq":1,"ring":2,"i":1}
{"kind":"expand","label":"RBFS/cosine/k=24","seq":1,"n":5,"ring":2,"i":2}
{"kind":"goal-test","label":"RBFS/cosine/k=24","seq":2,"depth":1,"goal":true,"ring":2,"i":3}
{"kind":"run-finish","label":"RBFS/cosine/k=24","n":2,"err":"canceled","ring":2,"i":4}
`
	if got != want {
		t.Fatalf("dump drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCauseCodes: every abort cause round-trips through its flight code,
// no cause shares the solved code 0, and an unknown name is an "error".
func TestCauseCodes(t *testing.T) {
	for _, cause := range []string{"panic", "deadline", "canceled", "memory", "limit", "exhausted", "error"} {
		code := CauseCode(cause)
		rec := FlightEvent{Kind: EvRunFinish, A: code}.record(1, "x", 0)
		if code == 0 || rec.Goal || rec.Err != cause {
			t.Fatalf("cause %q: code %d decodes to goal=%v err=%q", cause, code, rec.Goal, rec.Err)
		}
	}
	if CauseCode("no-such-cause") != CauseCode("error") {
		t.Fatal("unknown cause must encode as error")
	}
}

func TestFlightRequestDumpFirstCauseWins(t *testing.T) {
	r := NewFlightRecorder(8)
	r.RequestDump("memory")
	r.RequestDump("deadline")
	cause, ok := r.DumpRequested()
	if !ok || cause != "memory" {
		t.Fatalf("DumpRequested = %q/%v, want memory/true", cause, ok)
	}
}

func TestFlightFlushDumpOnceAndOnlyWhenRequested(t *testing.T) {
	r := NewFlightRecorder(8)
	var buf bytes.Buffer
	r.SetAutoDump(&buf)
	g := r.Ring("main")
	g.Record(EvGoalTest, 1, 0, 0)

	r.FlushDump() // not requested yet
	if buf.Len() != 0 {
		t.Fatalf("FlushDump wrote without a request")
	}
	r.RequestDump("panic")
	r.FlushDump()
	first := buf.Len()
	if first == 0 {
		t.Fatalf("FlushDump wrote nothing after request")
	}
	r.FlushDump() // idempotent
	if buf.Len() != first {
		t.Fatalf("second FlushDump wrote again")
	}
}

// TestFlightConcurrentRings exercises the intended concurrency model under
// -race: many goroutines each writing their own ring, dump only after join.
func TestFlightConcurrentRings(t *testing.T) {
	r := NewFlightRecorder(256)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := r.Ring("w")
			for i := 0; i < 10_000; i++ {
				g.Record(EvGoalTest, uint32(i), int32(id), 0)
			}
			if id == 0 {
				r.RequestDump("memory")
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if got := len(r.Records("w")); got != workers*256 {
		t.Fatalf("surviving records = %d, want %d", got, workers*256)
	}
}

// TestFlightRingGrowsOnDemand pins the on-demand ring: a new ring holds at
// most flightRingStart slots, whatever the count n of records written,
// Records, Len and Dump hold exactly the last min(n, cap) of them, oldest
// first, and once a ring has reached its cap Record allocates nothing.
func TestFlightRingGrowsOnDemand(t *testing.T) {
	for _, capacity := range []int{8, 64, 4096} {
		for _, n := range []int{0, 1, 63, 64, 65, 200, capacity - 1, capacity, capacity + 1, 3*capacity + 5} {
			r := NewFlightRecorder(capacity)
			g := r.Ring("main")
			if len(g.rec) > flightRingStart {
				t.Fatalf("cap %d: new ring holds %d slots, want at most %d", capacity, len(g.rec), flightRingStart)
			}
			for i := 0; i < n; i++ {
				g.Record(EvExpand, uint32(i), int32(i%7), int32(i%5))
			}
			want := min(n, capacity)
			first := n - want // the oldest surviving record
			if g.Len() != want {
				t.Fatalf("cap %d, n %d: Len = %d, want %d", capacity, n, g.Len(), want)
			}
			recs := r.Records("main")
			if len(recs) != want {
				t.Fatalf("cap %d, n %d: Records = %d, want %d", capacity, n, len(recs), want)
			}
			for j, e := range recs {
				i := first + j
				if e.Kind != EvExpand || e.Seq != uint32(i) || e.A != int32(i%7) || e.B != int32(i%5) {
					t.Fatalf("cap %d, n %d: record %d = %+v, want record %d", capacity, n, j, e, i)
				}
			}
			var buf bytes.Buffer
			if err := r.Dump(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			var hdr FlightHeader
			if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.RingSize != capacity {
				t.Fatalf("cap %d: dump ring_size = %d", capacity, hdr.RingSize)
			}
			if got := len(lines) - 1; got != want {
				t.Fatalf("cap %d, n %d: dump holds %d records, want %d", capacity, n, got, want)
			}
			for j, line := range lines[1:] {
				var rec EventRecord
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatal(err)
				}
				i := first + j
				if rec.I != uint64(i) || rec.Seq != i || rec.Depth != i%7 || rec.N != i%5 {
					t.Fatalf("cap %d, n %d: dump line %d = %+v, want record %d", capacity, n, j, rec, i)
				}
			}
		}

		g := NewFlightRecorder(capacity).Ring("main")
		for i := 0; i < capacity; i++ {
			g.Record(EvGoalTest, uint32(i), 0, 0)
		}
		if len(g.rec) != capacity {
			t.Fatalf("cap %d: ring holds %d slots after %d records", capacity, len(g.rec), capacity)
		}
		if allocs := testing.AllocsPerRun(3*capacity, func() { g.Record(EvGoalTest, 7, 3, 1) }); allocs != 0 {
			t.Fatalf("cap %d: Record at cap allocates %v per op, want 0", capacity, allocs)
		}
	}
}

func TestFlightRecordZeroAllocs(t *testing.T) {
	r := NewFlightRecorder(1024)
	g := r.Ring("main")
	allocs := testing.AllocsPerRun(10_000, func() {
		g.Record(EvGoalTest, 7, 3, 1)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

// BenchmarkFlightRecord is the steady-state cost of one enabled record with
// no dump reader attached. CI pins it at ≤ 25 ns/op and 0 allocs/op.
func BenchmarkFlightRecord(b *testing.B) {
	r := NewFlightRecorder(4096)
	g := r.Ring("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Record(EvGoalTest, uint32(i), int32(i&7), 0)
	}
}

// BenchmarkFlightRecordDisabled is the disabled path: a nil ring, so Record
// is a single nil-check.
func BenchmarkFlightRecordDisabled(b *testing.B) {
	var g *FlightRing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Record(EvGoalTest, uint32(i), 0, 0)
	}
}
