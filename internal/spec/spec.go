// Package spec parses the textual formats the rtic CLI consumes: a spec
// file declaring relations and constraints, and a transaction log with
// one timestamped transaction per line.
//
// Spec file:
//
//	-- comments run to end of line
//	relation hire/1
//	relation fire/1
//	constraint no_quick_rehire: hire(e) -> not once[0,365] fire(e)
//
// Log line:
//
//	@100 -fire(7) +hire(7) +badge('ann', 'red')
//
// i.e. "@<time>" followed by "+rel(literals)" insertions and
// "-rel(literals)" deletions.
package spec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
	"rtic/internal/workload"
)

// Spec is a parsed spec file.
type Spec struct {
	Schema      *schema.Schema
	Constraints []workload.ConstraintSpec
}

// ParseSpec reads relation and constraint declarations.
func ParseSpec(r io.Reader) (*Spec, error) {
	b := schema.NewBuilder()
	var cons []workload.ConstraintSpec
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "--"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "relation "):
			rest := strings.TrimSpace(strings.TrimPrefix(line, "relation "))
			name, arityStr, ok := strings.Cut(rest, "/")
			if !ok {
				return nil, fmt.Errorf("spec: line %d: want \"relation name/arity\", got %q", lineNo, line)
			}
			arity, err := strconv.Atoi(strings.TrimSpace(arityStr))
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: bad arity %q", lineNo, arityStr)
			}
			b.Relation(strings.TrimSpace(name), arity)
		case strings.HasPrefix(line, "constraint "):
			rest := strings.TrimSpace(strings.TrimPrefix(line, "constraint "))
			name, src, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, fmt.Errorf("spec: line %d: want \"constraint name: formula\", got %q", lineNo, line)
			}
			cons = append(cons, workload.ConstraintSpec{
				Name:   strings.TrimSpace(name),
				Source: strings.TrimSpace(src),
				Line:   lineNo,
			})
		default:
			return nil, fmt.Errorf("spec: line %d: unknown directive %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s, err := b.Build()
	if err != nil {
		return nil, err
	}
	if len(cons) == 0 {
		return nil, fmt.Errorf("spec: no constraints declared")
	}
	return &Spec{Schema: s, Constraints: cons}, nil
}

// ParseLogLine reads one "@time ±rel(args) …" line. Empty lines and
// comment lines ("--") yield ok=false.
func ParseLogLine(line string) (t uint64, tx *storage.Transaction, ok bool, err error) {
	if i := strings.Index(line, "--"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return 0, nil, false, nil
	}
	if !strings.HasPrefix(line, "@") {
		return 0, nil, false, fmt.Errorf("spec: log line must start with \"@time\": %q", line)
	}
	stamp, ops := nextOp(line)
	t, err = strconv.ParseUint(strings.TrimPrefix(stamp, "@"), 10, 64)
	if err != nil {
		return 0, nil, false, fmt.Errorf("spec: bad timestamp in %q: %v", stamp, err)
	}
	tx = storage.NewTransaction()
	for f, ops := nextOp(ops); f != ""; f, ops = nextOp(ops) {
		if len(f) < 2 || (f[0] != '+' && f[0] != '-') {
			return 0, nil, false, fmt.Errorf("spec: bad operation %q (want +rel(...) or -rel(...))", f)
		}
		insert := f[0] == '+'
		rel, row, err := parseTupleCall(f[1:])
		if err != nil {
			return 0, nil, false, err
		}
		if insert {
			tx.Insert(rel, row)
		} else {
			tx.Delete(rel, row)
		}
	}
	return t, tx, true, nil
}

// nextOp cuts the first token off line: tokens are separated by blanks
// outside single-quoted strings and outside parentheses, so
// "+badge('ann', 'red')" stays one token. Both results are substrings of
// line — this runs once per operation of every commit, and copies
// nothing. An empty token means the line is used up.
func nextOp(line string) (tok, rest string) {
	line = strings.TrimLeft(line, " \t")
	inStr, depth := false, 0
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c == '\'':
			inStr = !inStr
		case inStr:
		case c == '(':
			depth++
		case c == ')':
			if depth > 0 {
				depth--
			}
		case depth == 0 && (c == ' ' || c == '\t'):
			return line[:i], line[i+1:]
		}
	}
	return line, ""
}

// parseTupleCall reads "rel(lit, lit, …)".
func parseTupleCall(s string) (string, tuple.Tuple, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("spec: bad tuple %q", s)
	}
	rel := s[:open]
	body := s[open+1 : len(s)-1]
	if strings.TrimSpace(body) == "" {
		return rel, tuple.Of(), nil
	}
	row := make(tuple.Tuple, 0, strings.Count(body, ",")+1)
	for more := true; more; {
		var arg string
		arg, body, more = nextArg(body)
		v, err := value.Parse(strings.TrimSpace(arg))
		if err != nil {
			return "", nil, fmt.Errorf("spec: tuple %q: %w", s, err)
		}
		row = append(row, v)
	}
	return rel, row, nil
}

// nextArg cuts body at its first comma outside single-quoted strings;
// more reports that there was one, so another argument follows.
func nextArg(body string) (arg, rest string, more bool) {
	inStr := false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\'':
			inStr = !inStr
		case ',':
			if !inStr {
				return body[:i], body[i+1:], true
			}
		}
	}
	return body, "", false
}
