package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tupelo/internal/obs"
)

// empPair writes the Emp→Employee rename pair, whose mapping is a relation
// rename and two attribute renames, and returns the two file paths.
func empPair(t *testing.T) (src, tgt string) {
	t.Helper()
	dir := t.TempDir()
	src, tgt = filepath.Join(dir, "src.txt"), filepath.Join(dir, "tgt.txt")
	for path, text := range map[string]string{
		src: "relation Emp\n  nm     dept\n  Alice  Sales\n  Bob    Dev\n",
		tgt: "relation Employee\n  Name   Dept\n  Alice  Sales\n  Bob    Dev\n",
	} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return src, tgt
}

// discover runs cmdDiscover with os.Stdout redirected to a file and returns
// what it printed there, with its error.
func discover(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := cmdDiscover(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestDiscoverArtifacts drives tupelo discover's artifacts: the -trace-json
// transcript, a -report written for an aborted run, and a transcript that
// cannot be written failing the command after the mapping is printed.
func TestDiscoverArtifacts(t *testing.T) {
	src, tgt := empPair(t)
	const mapping = "rename_rel[Emp->Employee]\n"

	t.Run("trace-json", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		out, err := discover(t, "-source", src, "-target", tgt, "-trace-json", path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out, mapping) {
			t.Fatalf("printed %q, want a mapping starting %q", out, mapping)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records, solved := 0, false
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			dec.DisallowUnknownFields()
			var rec obs.EventRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("line %d %q: %v", records+1, sc.Text(), err)
			}
			records++
			solved = solved || (rec.Kind == "run-finish" && rec.Goal)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if !solved {
			t.Fatalf("%d records and no run-finish with goal set", records)
		}
	})

	t.Run("report-on-abort", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "report.json")
		if _, err := discover(t, "-source", src, "-target", tgt, "-max-states", "1", "-report", path); err == nil {
			t.Fatal("a one-state budget solved the pair")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep obs.RunReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Solved || rep.AbortCause != "limit" {
			t.Fatalf("report says solved=%v abort_cause=%q, want an unsolved run aborted by its limit", rep.Solved, rep.AbortCause)
		}
		if rep.Examined != 1 {
			t.Fatalf("report says %d states examined, want the budget's 1", rep.Examined)
		}
	})

	t.Run("unwritable-trace", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full on this system")
		}
		out, err := discover(t, "-source", src, "-target", tgt, "-trace-json", "/dev/full")
		if err == nil {
			t.Fatal("a transcript written to /dev/full did not fail the command")
		}
		if !strings.HasPrefix(out, mapping) {
			t.Fatalf("printed %q before failing, want the mapping", out)
		}
	})
}
