package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"tupelo/internal/obs"
	"tupelo/internal/relation"
)

// TestTraceWriterTranscript decodes the JSONL transcript of a one-rename
// discovery: the first examined state, an expansion, the rename as a move,
// a goal test that succeeds and a solved run-finish, each line one
// obs.EventRecord.
func TestTraceWriterTranscript(t *testing.T) {
	src := relation.MustDatabase(
		relation.MustNew("Emp", []string{"nm"}, relation.Tuple{"ann"}),
	)
	tgt := relation.MustDatabase(
		relation.MustNew("Emp", []string{"Name"}, relation.Tuple{"ann"}),
	)
	var buf bytes.Buffer
	jt := obs.NewJSONTracer(&buf)
	opts := DefaultOptions()
	opts.Tracer = jt
	res, err := Discover(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.Err(); err != nil {
		t.Fatal(err)
	}
	var firstExamined, expand, move, goalTest, solved bool
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec obs.EventRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("transcript line %q: %v", sc.Text(), err)
		}
		switch rec.Kind {
		case "goal-test":
			firstExamined = firstExamined || rec.Seq == 1
			goalTest = goalTest || rec.Goal
		case "expand":
			expand = true
		case "move":
			move = move || rec.Label == "rename_att[Emp,nm->Name]"
		case "run-finish":
			solved = solved || rec.Goal
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !firstExamined || !expand || !move || !goalTest || !solved {
		t.Fatalf("transcript lacks a record: examine 1 %v, expand %v, rename move %v, goal %v, solved run %v:\n%s",
			firstExamined, expand, move, goalTest, solved, buf.String())
	}
	if len(res.Expr) != 1 {
		t.Fatalf("tracing changed the result: %s", res.Expr)
	}
}
