// Package critio reads and writes critical instances — the user-supplied
// example databases that drive TUPELO's mapping discovery (§2.2 of "Data
// Mapping as Search") — together with λ correspondence annotations (§4).
//
// The original system elicited critical instances through a GUI (the
// paper's Fig. 3); this package substitutes a plain-text format that feeds
// the identical discovery code path:
//
//	# Flights database B
//	relation Prices
//	  Carrier  Route  Cost  AgentFee
//	  AirEast  ATL29  100   15
//	  JetWest  ATL29  200   16
//
//	map sum(Cost, AgentFee) -> TotalCost
//	map concat(First, Last) -> Passenger on Pass
//
// A relation block is the relation name followed by a header line of
// attribute names and zero or more tuple lines; blocks end at a blank line
// or the next directive. Fields are whitespace-separated; fields containing
// whitespace (or empty fields) are double-quoted with backslash escapes.
// Lines starting with '#' are comments.
package critio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"tupelo/internal/lambda"
	"tupelo/internal/relation"
)

// Instance is a parsed critical instance: the example database plus any
// complex-function correspondences articulated on it.
type Instance struct {
	DB    *relation.Database
	Corrs []lambda.Correspondence
}

// Read parses a critical instance from r. Lines may be up to 1 MiB long;
// the scanner starts from its default 4 KiB buffer and doubles it only for
// longer lines, so parsing a small instance allocates little.
func Read(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024)
	var (
		rels    []*relation.Relation
		corrs   []lambda.Correspondence
		cur     *relation.Relation
		curName string
		header  []string
		lineNo  int
	)
	flush := func() error {
		if curName == "" {
			return nil
		}
		if cur == nil {
			return fmt.Errorf("critio: relation %q has no attribute header", curName)
		}
		rels = append(rels, cur)
		cur, curName, header = nil, "", nil
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "relation "):
			if err := flush(); err != nil {
				return nil, err
			}
			curName = strings.TrimSpace(strings.TrimPrefix(line, "relation "))
			if curName == "" {
				return nil, fmt.Errorf("critio: line %d: relation with no name", lineNo)
			}
		case strings.HasPrefix(line, "map "):
			if err := flush(); err != nil {
				return nil, err
			}
			c, err := parseMap(strings.TrimPrefix(line, "map "))
			if err != nil {
				return nil, fmt.Errorf("critio: line %d: %v", lineNo, err)
			}
			corrs = append(corrs, c)
		default:
			if curName == "" {
				return nil, fmt.Errorf("critio: line %d: data outside a relation block: %q", lineNo, line)
			}
			fields, err := splitFields(line)
			if err != nil {
				return nil, fmt.Errorf("critio: line %d: %v", lineNo, err)
			}
			if header == nil {
				header = fields
				cur, err = relation.New(curName, header)
				if err != nil {
					return nil, fmt.Errorf("critio: line %d: %v", lineNo, err)
				}
				continue
			}
			cur, err = cur.Insert(relation.Tuple(fields))
			if err != nil {
				return nil, fmt.Errorf("critio: line %d: %v", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("critio: %v", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		return nil, fmt.Errorf("critio: %v", err)
	}
	return &Instance{DB: db, Corrs: corrs}, nil
}

// ReadString parses a critical instance from a string.
func ReadString(s string) (*Instance, error) {
	return Read(strings.NewReader(s))
}

// parseMap parses "func(in1, in2) -> out [on Rel]".
func parseMap(s string) (lambda.Correspondence, error) {
	var c lambda.Correspondence
	open := strings.IndexByte(s, '(')
	close := strings.IndexByte(s, ')')
	if open <= 0 || close < open {
		return c, fmt.Errorf("malformed map directive %q", s)
	}
	c.Func = strings.TrimSpace(s[:open])
	for _, in := range strings.Split(s[open+1:close], ",") {
		in = strings.TrimSpace(in)
		if in == "" {
			return c, fmt.Errorf("empty input attribute in %q", s)
		}
		c.In = append(c.In, in)
	}
	rest := strings.TrimSpace(s[close+1:])
	if !strings.HasPrefix(rest, "->") {
		return c, fmt.Errorf("missing -> in %q", s)
	}
	rest = strings.TrimSpace(strings.TrimPrefix(rest, "->"))
	if strings.HasSuffix(rest, " on") {
		return c, fmt.Errorf("empty relation in %q", s)
	}
	if i := strings.Index(rest, " on "); i >= 0 {
		c.Out = strings.TrimSpace(rest[:i])
		c.Rel = strings.TrimSpace(rest[i+4:])
		if c.Rel == "" {
			return c, fmt.Errorf("empty relation in %q", s)
		}
	} else {
		c.Out = rest
	}
	if c.Func == "" || c.Out == "" {
		return c, fmt.Errorf("malformed map directive %q", s)
	}
	return c, nil
}

// splitFields splits a line into whitespace-separated fields, honouring
// double quotes with backslash escapes.
func splitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			i++
			var b strings.Builder
			closed := false
			for i < len(line) {
				switch line[i] {
				case '\\':
					if i+1 >= len(line) {
						return nil, fmt.Errorf("dangling escape in %q", line)
					}
					b.WriteByte(line[i+1])
					i += 2
				case '"':
					i++
					closed = true
				default:
					b.WriteByte(line[i])
					i++
				}
				if closed {
					break
				}
			}
			if !closed {
				return nil, fmt.Errorf("unterminated quote in %q", line)
			}
			out = append(out, b.String())
			continue
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		out = append(out, line[start:i])
	}
	return out, nil
}

// Write renders an instance in the format Read understands. The format is
// line-based, so names and values containing newlines are unrepresentable;
// Write fails loudly on them rather than emitting a file Read would
// misparse.
func Write(w io.Writer, inst *Instance) error {
	bw := bufio.NewWriter(w)
	for i, r := range inst.DB.Relations() {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		if err := checkWritable(r.Name()); err != nil {
			return err
		}
		fmt.Fprintf(bw, "relation %s\n", r.Name())
		if err := checkFields(r.Attrs()); err != nil {
			return err
		}
		fmt.Fprintf(bw, "  %s\n", joinFields(r.Attrs()))
		for j := 0; j < r.Len(); j++ {
			if err := checkFields(r.Row(j)); err != nil {
				return err
			}
			fmt.Fprintf(bw, "  %s\n", joinFields(r.Row(j)))
		}
	}
	if len(inst.Corrs) > 0 {
		fmt.Fprintln(bw)
		for _, c := range inst.Corrs {
			fmt.Fprintf(bw, "map %s(%s) -> %s", c.Func, strings.Join(c.In, ", "), c.Out)
			if c.Rel != "" {
				fmt.Fprintf(bw, " on %s", c.Rel)
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// WriteString renders an instance to a string. It panics on instances the
// format cannot represent (newline-containing tokens); any instance that
// came from Read is always representable.
func WriteString(inst *Instance) string {
	var b strings.Builder
	if err := Write(&b, inst); err != nil {
		panic(err)
	}
	return b.String()
}

// checkWritable rejects relation names the line-based format cannot carry:
// they are written bare, so a newline would split the line, and
// leading/trailing whitespace would be trimmed away on the next Read.
func checkWritable(s string) error {
	if strings.ContainsRune(s, '\n') || strings.TrimSpace(s) != s {
		return fmt.Errorf("critio: relation name %q cannot be represented in the line-based format", s)
	}
	return nil
}

// checkFields rejects field values the format cannot carry. Fields are
// quoted on demand, which makes carriage returns representable; a newline
// still terminates the physical line and cannot be escaped.
func checkFields(fields []string) error {
	for _, f := range fields {
		if strings.ContainsRune(f, '\n') {
			return fmt.Errorf("critio: value %q contains a newline, which the format cannot represent", f)
		}
	}
	return nil
}

// joinFields quotes fields that need it.
func joinFields(fields []string) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = quoteField(f)
	}
	return strings.Join(parts, "  ")
}

func quoteField(f string) string {
	if f == "" || strings.ContainsAny(f, " \t\r\"\\#") {
		f = strings.ReplaceAll(f, `\`, `\\`)
		f = strings.ReplaceAll(f, `"`, `\"`)
		return `"` + f + `"`
	}
	return f
}
