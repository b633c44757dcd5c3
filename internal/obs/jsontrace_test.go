package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestJSONTracerStream(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracer(&buf)
	tr.Event(Event{Kind: EvRunStart, Label: "RBFS"})
	tr.Event(Event{Kind: EvGoalTest, Seq: 3, Depth: 2, Goal: true})
	tr.Event(Event{Kind: EvOpApply, Label: "drop[Emp,dept]", Goal: true, Elapsed: 250 * time.Nanosecond})
	tr.Event(Event{Kind: EvRunFinish, Label: "RBFS", Err: errors.New("limit"), N: 9})

	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d JSON lines, want 4", len(lines))
	}
	if lines[0]["kind"] != "run-start" || lines[0]["label"] != "RBFS" {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["kind"] != "goal-test" || lines[1]["seq"] != float64(3) ||
		lines[1]["depth"] != float64(2) || lines[1]["goal"] != true {
		t.Fatalf("line 1 = %v", lines[1])
	}
	if lines[2]["elapsed_ns"] != float64(250) {
		t.Fatalf("line 2 = %v", lines[2])
	}
	if lines[3]["err"] != "limit" {
		t.Fatalf("line 3 = %v", lines[3])
	}
	if _, present := lines[0]["seq"]; present {
		t.Fatal("zero fields must be omitted")
	}
}

// TestJSONTracerGoldenLine pins the wire form of one event: field names,
// field order, and omission of zero fields.
func TestJSONTracerGoldenLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONTracer(&buf)
	tr.Event(Event{Kind: EvRunFinish, Label: "RBFS/cosine/k=24", N: 12, Depth: 3, Err: errors.New("limit"), Elapsed: 1500})
	const want = `{"kind":"run-finish","label":"RBFS/cosine/k=24","n":12,"depth":3,"err":"limit","elapsed_ns":1500}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("JSONL line drifted.\ngot:  %swant: %s", got, want)
	}
}

// failAfter accepts n writes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestJSONTracerErr: a write that fails partway through the stream is kept
// as the tracer's first error, and later events neither clear nor replace
// it.
func TestJSONTracerErr(t *testing.T) {
	full := errors.New("no space left on device")
	w := &failAfter{n: 3, err: full}
	tr := NewJSONTracer(w)
	for i := 1; i <= 3; i++ {
		tr.Event(Event{Kind: EvGoalTest, Seq: i})
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("Err after successful writes = %v", err)
	}
	tr.Event(Event{Kind: EvGoalTest, Seq: 4})
	if err := tr.Err(); !errors.Is(err, full) {
		t.Fatalf("Err = %v, want %v", err, full)
	}
	w.err = errors.New("later failure")
	tr.Event(Event{Kind: EvGoalTest, Seq: 5})
	if err := tr.Err(); !errors.Is(err, full) {
		t.Fatalf("Err after a later failure = %v, want the first error %v", err, full)
	}
}
