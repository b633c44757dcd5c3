// Command tupelo-trace renders the forensic artifacts the engine emits:
// run reports (tupelo-report/v1, from tupelo discover -report or
// core.BuildReport), benchmark reports (tupelo-bench/v1, from tupelo-bench
// -bench-out), flight-recorder dumps (tupelo-flight/v2, from tupelo
// discover -flight), and structured JSONL traces (from -trace-json).
//
//	tupelo-trace summary FILE          # what ran, what happened, where time went (profile tables)
//	tupelo-trace heuristic FILE        # heuristic-quality ranking (the paper's §5 question)
//	tupelo-trace diff OLD NEW          # compare two reports of the same kind
//	tupelo-trace chrome FILE [-o OUT]  # convert to Chrome trace-event JSON (Perfetto)
//
// Every subcommand sniffs the file format from its schema line, so the same
// verbs work across artifact kinds where the analysis makes sense.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summary":
		err = withInput(os.Args[2:], 1, func(ins []*input) error {
			return summaryCmd(os.Stdout, ins[0])
		})
	case "heuristic":
		err = withInput(os.Args[2:], 1, func(ins []*input) error {
			return heuristicCmd(os.Stdout, ins[0])
		})
	case "diff":
		err = withInput(os.Args[2:], 2, func(ins []*input) error {
			return diffCmd(os.Stdout, ins[0], ins[1])
		})
	case "chrome":
		err = chromeMain(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tupelo-trace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tupelo-trace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  tupelo-trace summary FILE          summarize a report, bench report, flight dump, or JSONL trace
  tupelo-trace heuristic FILE        rank heuristics by quality (run report or bench report)
  tupelo-trace diff OLD NEW          compare two run reports or two bench reports
  tupelo-trace chrome FILE [-o OUT]  emit Chrome trace-event JSON (chrome://tracing, Perfetto)
`)
}

// withInput loads n file arguments and hands them to fn.
func withInput(args []string, n int, fn func([]*input) error) error {
	if len(args) != n {
		return fmt.Errorf("expected %d file argument(s), got %d", n, len(args))
	}
	ins := make([]*input, 0, n)
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		in, err := detectInput(data)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		in.path = path
		ins = append(ins, in)
	}
	return fn(ins)
}

// chromeMain handles the chrome subcommand's optional -o flag.
func chromeMain(args []string) error {
	var outPath string
	var files []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-o" {
			if i+1 >= len(args) {
				return fmt.Errorf("chrome: -o needs a file argument")
			}
			outPath = args[i+1]
			i++
			continue
		}
		files = append(files, args[i])
	}
	return withInput(files, 1, func(ins []*input) error {
		if outPath == "" {
			return chromeCmd(os.Stdout, ins[0])
		}
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := chromeCmd(f, ins[0]); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}
