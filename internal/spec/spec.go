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
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rtic/internal/schema"
	"rtic/internal/storage"
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
		line = strings.TrimSpace(line[:commentStart(line)])
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

// MaxLineBytes caps one log line, its newline included: the server's
// sessions and the rtic CLI's replay scan with this limit, so a line one
// accepts the other accepts too. A transaction can carry many tuples,
// hence the generous cap.
const MaxLineBytes = 1 << 20

// ParseLogLine reads one "@time ±rel(args) …" line into a transaction
// of its own. Empty lines and comment lines ("--") yield ok=false.
func ParseLogLine(line string) (t uint64, tx *storage.Transaction, ok bool, err error) {
	tx = storage.NewTransaction()
	if t, ok, err = ParseLogLineInto([]byte(line), nil, tx); !ok || err != nil {
		return 0, nil, false, err
	}
	return t, tx, true, nil
}

// ParseLogLineInto reads one "@time ±rel(args) …" line into tx, which
// it resets first, so one transaction serves every line of a stream.
// Empty lines and comment lines ("--") yield ok=false. Each op's values
// are parsed into a row on the stack and copied into tx's slab; with a
// schema s, a relation it declares is named by the schema's own string.
// Nothing in tx or in the error refers to line, so the caller may reuse
// line's buffer at once. An int-only line over declared relations
// allocates nothing once tx has grown to the line's size.
func ParseLogLineInto(line []byte, s *schema.Schema, tx *storage.Transaction) (t uint64, ok bool, err error) {
	tx.Reset()
	line = bytes.TrimSpace(line[:commentStart(line)])
	if len(line) == 0 {
		return 0, false, nil
	}
	if line[0] != '@' {
		return 0, false, fmt.Errorf("spec: log line must start with \"@time\": %q", line)
	}
	stamp, ops := nextOp(line)
	if t, err = parseStamp(stamp[1:]); err != nil {
		return 0, false, fmt.Errorf("spec: bad timestamp in %q: %v", stamp, err)
	}
	for f, ops := nextOp(ops); len(f) > 0; f, ops = nextOp(ops) {
		if len(f) < 2 || (f[0] != '+' && f[0] != '-') {
			return 0, false, fmt.Errorf("spec: bad operation %q (want +rel(...) or -rel(...))", f)
		}
		if err := parseOp(f, s, tx); err != nil {
			return 0, false, err
		}
	}
	return t, true, nil
}

// commentStart returns the index of the "--" that opens a comment in
// line, or len(line) when there is none. A "--" inside a single-quoted
// string is part of the string. An escaped quote inside one is a
// doubled quote, which toggles out of the string and straight back in.
func commentStart[S string | []byte](line S) int {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == '\'':
			inStr = !inStr
		case !inStr && line[i] == '-' && i+1 < len(line) && line[i+1] == '-':
			return i
		}
	}
	return len(line)
}

// nextOp cuts the first token off line: tokens are separated by blanks
// outside single-quoted strings and outside parentheses, so
// "+badge('ann', 'red')" stays one token. Both results are subslices of
// line — this runs once per operation of every commit, and copies
// nothing. An empty token means the line is used up.
//
//rtic:noalloc
func nextOp(line []byte) (tok, rest []byte) {
	for len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
		line = line[1:]
	}
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
	return line, nil
}

// parseOp adds the operation "±rel(lit, lit, …)" to tx.
func parseOp(f []byte, s *schema.Schema, tx *storage.Transaction) error {
	call := f[1:]
	open := bytes.IndexByte(call, '(')
	if open < 0 || call[len(call)-1] != ')' {
		return fmt.Errorf("spec: bad tuple %q", call)
	}
	rel, known := "", false
	if s != nil {
		rel, known = s.Name(call[:open])
	}
	if !known {
		rel = string(call[:open]) // an undeclared name fails validation at commit
	}
	var buf [8]value.Value
	row := buf[:0]
	if body := call[open+1 : len(call)-1]; len(bytes.TrimSpace(body)) > 0 {
		for more := true; more; {
			var arg []byte
			arg, body, more = nextArg(body)
			v, err := parseValue(bytes.TrimSpace(arg))
			if err != nil {
				return fmt.Errorf("spec: tuple %q: %w", call, err)
			}
			row = append(row, v)
		}
	}
	if f[0] == '+' {
		tx.Insert(rel, row)
	} else {
		tx.Delete(rel, row)
	}
	return nil
}

// nextArg cuts body at its first comma outside single-quoted strings;
// more reports that there was one, so another argument follows.
//
//rtic:noalloc
func nextArg(body []byte) (arg, rest []byte, more bool) {
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
	return body, nil, false
}

// maxFastDigits is the longest digit run parsed without an overflow
// check: 18 decimal digits always fit in an int64.
const maxFastDigits = 18

// parseStamp reads a timestamp as strconv.ParseUint does, without
// copying short digit runs; anything else takes strconv's path, for its
// errors.
func parseStamp(b []byte) (uint64, error) {
	if n, ok := digits(b); ok {
		return n, nil
	}
	return strconv.ParseUint(string(b), 10, 64)
}

// parseValue reads a literal as value.Parse does. An integer of up to
// 18 digits is read in place; anything else, strings included, goes
// through value.Parse.
func parseValue(b []byte) (value.Value, error) {
	num := b
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		num = b[1:]
	}
	if n, ok := digits(num); ok {
		if b[0] == '-' {
			return value.Int(-int64(n)), nil
		}
		return value.Int(int64(n)), nil
	}
	return value.Parse(string(b))
}

// digits parses b when it is 1 to maxFastDigits decimal digits.
func digits(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > maxFastDigits {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}
