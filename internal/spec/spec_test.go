package spec

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

func TestParseSpec(t *testing.T) {
	src := `
-- HR rules
relation hire/1
relation fire/1

constraint no_quick_rehire: hire(e) -> not once[0,365] fire(e)
constraint other: fire(e) -> not hire(e)
`
	sp, err := ParseSpec(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Schema.Len() != 2 {
		t.Fatalf("schema = %s", sp.Schema)
	}
	if len(sp.Constraints) != 2 || sp.Constraints[0].Name != "no_quick_rehire" {
		t.Fatalf("constraints = %v", sp.Constraints)
	}
	if !strings.Contains(sp.Constraints[0].Source, "once[0,365]") {
		t.Fatalf("constraint source = %q", sp.Constraints[0].Source)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"relation hire", "relation name/arity"},
		{"relation hire/x", "bad arity"},
		{"constraint no colon here", "constraint name"},
		{"bogus line", "unknown directive"},
		{"relation hire/1", "no constraints"},
		{"relation hire/1\nrelation hire/1\nconstraint c: hire(e) -> not hire(e)", "duplicate"},
	}
	for _, c := range cases {
		_, err := ParseSpec(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseSpec(%q) err = %v, want containing %q", c.src, err, c.frag)
		}
	}
}

func TestParseLogLine(t *testing.T) {
	tm, tx, ok, err := ParseLogLine("@100 -fire(7) +hire(7) +badge('ann', 'red')")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if tm != 100 || tx.Len() != 3 {
		t.Fatalf("tm=%d ops=%d", tm, tx.Len())
	}
	ops := tx.Ops()
	if ops[0].Insert || ops[0].Rel != "fire" || !ops[0].Tuple.Equal(tuple.Ints(7)) {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if !ops[2].Tuple.Equal(tuple.Strs("ann", "red")) {
		t.Fatalf("op2 = %+v", ops[2])
	}
}

func TestParseLogLineEmptyAndComments(t *testing.T) {
	for _, line := range []string{"", "   ", "-- a comment", "@5 +p(1) -- trailing"} {
		tm, _, ok, err := ParseLogLine(line)
		if err != nil {
			t.Fatalf("ParseLogLine(%q): %v", line, err)
		}
		if line == "@5 +p(1) -- trailing" {
			if !ok || tm != 5 {
				t.Fatalf("trailing comment broke parse: ok=%v tm=%d", ok, tm)
			}
		} else if ok {
			t.Fatalf("ParseLogLine(%q) = ok", line)
		}
	}
}

func TestParseLogLineNullaryAndSpaces(t *testing.T) {
	_, tx, ok, err := ParseLogLine("@1 +alarm()")
	if err != nil || !ok || tx.Len() != 1 {
		t.Fatalf("nullary: ok=%v err=%v", ok, err)
	}
	if len(tx.Ops()[0].Tuple) != 0 {
		t.Fatal("nullary tuple has values")
	}
	// A quoted string containing a space must survive splitting.
	_, tx, _, err = ParseLogLine("@2 +name('a b')")
	if err != nil {
		t.Fatal(err)
	}
	if !tx.Ops()[0].Tuple.Equal(tuple.Strs("a b")) {
		t.Fatalf("tuple = %v", tx.Ops()[0].Tuple)
	}
}

func TestParseLogLineErrors(t *testing.T) {
	cases := []struct{ line, frag string }{
		{"100 +p(1)", "must start"},
		{"@x +p(1)", "bad timestamp"},
		{"@1 p(1)", "bad operation"},
		{"@1 +p", "bad tuple"},
		{"@1 +p(1,zz)", "bad literal"},
	}
	for _, c := range cases {
		_, _, _, err := ParseLogLine(c.line)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseLogLine(%q) err = %v, want containing %q", c.line, err, c.frag)
		}
	}
}

// TestQuotedDoubleDash: "--" opens a comment only outside a quoted
// string, in log lines and in spec files alike.
func TestQuotedDoubleDash(t *testing.T) {
	cases := []struct {
		line string
		want tuple.Tuple
	}{
		{"@1 +badge('a--b')", tuple.Strs("a--b")},
		{"@1 +badge('a--b') -- trailing comment", tuple.Strs("a--b")},
		{"@1 +badge('x', 'y') -- it's a 'comment'", tuple.Strs("x", "y")},
		{"@1 +badge('it''s')", tuple.Strs("it's")},
		{"@1 +badge('it''s--') --", tuple.Strs("it's--")},
		{"@1 +badge('--')", tuple.Strs("--")},
	}
	for _, c := range cases {
		_, tx, ok, err := ParseLogLine(c.line)
		if err != nil || !ok || tx.Len() != 1 {
			t.Errorf("ParseLogLine(%q): ok=%v err=%v", c.line, ok, err)
			continue
		}
		if got := tx.Ops()[0].Tuple; !got.Equal(c.want) {
			t.Errorf("ParseLogLine(%q) tuple = %v, want %v", c.line, got, c.want)
		}
	}
	src := "relation badge/1 -- one column\nconstraint c: badge(p) -> p != 'a--b' -- trailing\n"
	sp, err := ParseSpec(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.Constraints[0].Source, "badge(p) -> p != 'a--b'"; got != want {
		t.Fatalf("constraint source = %q, want %q", got, want)
	}
}

// TestParseLogLineIntoReuse parses lines of different shapes into one
// transaction: each parse replaces the last, declared relations are
// named by the schema's own strings, and nothing in the transaction
// aliases the line's buffer.
func TestParseLogLineIntoReuse(t *testing.T) {
	s := schema.NewBuilder().Relation("fire", 1).Relation("badge", 2).MustBuild()
	tx := storage.NewTransaction()
	lines := []string{
		"@1 +fire(1) +badge('ann', 'red')",
		"@2 -fire(1)",
		"-- nothing",
		"@3 +badge(-4, '') +fire(+5) +nope(6)",
	}
	want := []string{"+fire(1) +badge('ann', 'red')", "-fire(1)", "", "+badge(-4, '') +fire(5) +nope(6)"}
	for i, line := range lines {
		buf := []byte(line)
		_, ok, err := ParseLogLineInto(buf, s, tx)
		if err != nil || ok != (want[i] != "") {
			t.Fatalf("line %q: ok=%v err=%v", line, ok, err)
		}
		for j := range buf {
			buf[j] = '#'
		}
		if !ok {
			continue
		}
		if got := tx.String(); got != want[i] {
			t.Fatalf("line %q: tx = %s, want %s", line, got, want[i])
		}
		for _, op := range tx.Ops() {
			if def, declared := s.Lookup(op.Rel); declared && unsafe.StringData(op.Rel) != unsafe.StringData(def.Name) {
				t.Errorf("line %q: relation %s is not the schema's string", line, op.Rel)
			}
		}
	}
}

// TestParseValueMatchesValueParse holds the log parser's literal reader
// to value.Parse: the same value or the same error text.
func TestParseValueMatchesValueParse(t *testing.T) {
	for _, lit := range []string{
		"", "0", "7", "-7", "+7", "-0", "007", "-", "+", "--1", "1-",
		"123456789012345678", "1234567890123456789", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"99999999999999999999", "1_000", "0x10", " 1", "1.5", "abc",
		"'a'", "''", "'", "'a", "a'", "'it''s'", "'a'b'", "'''", "'a b'", "'--'",
	} {
		got, gerr := parseValue([]byte(lit))
		want, werr := value.Parse(lit)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Errorf("%q: error %v, value.Parse says %v", lit, gerr, werr)
		} else if gerr == nil && !got.Equal(want) {
			t.Errorf("%q: %v, value.Parse says %v", lit, got, want)
		}
	}
}

// BenchmarkParseLogLineInto parses the line protocol's common case,
// integer tuples of declared relations, into one reused transaction.
// Table 11's train rows hold the same parser to its allocation count.
func BenchmarkParseLogLineInto(b *testing.B) {
	s := schema.NewBuilder().Relation("reading", 2).Relation("fire", 1).MustBuild()
	line := []byte("@1700000000 -reading(17, 1699999990) +reading(17, 1700000000) +fire(3)")
	tx := storage.NewTransaction()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ParseLogLineInto(line, s, tx); !ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// oldSplitOps and oldSplitArgs are the tokenisers ParseLogLine used
// before it sliced its input: they rebuild every token byte by byte.
// They stay here as the reference nextOp and nextArg are held to.
func oldSplitOps(line string) []string {
	var out []string
	var cur strings.Builder
	inStr := false
	depth := 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '\'' {
			inStr = !inStr
		}
		if !inStr {
			switch c {
			case '(':
				depth++
			case ')':
				if depth > 0 {
					depth--
				}
			}
		}
		if !inStr && depth == 0 && (c == ' ' || c == '\t') {
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
			continue
		}
		cur.WriteByte(c)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func oldSplitArgs(body string) []string {
	var out []string
	var cur strings.Builder
	inStr := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\'' {
			inStr = !inStr
		}
		if !inStr && c == ',' {
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteByte(c)
	}
	out = append(out, cur.String())
	return out
}

func allOps(line string) []string {
	var out []string
	for tok, rest := nextOp([]byte(line)); len(tok) > 0; tok, rest = nextOp(rest) {
		out = append(out, string(tok))
	}
	return out
}

func allArgs(s string) []string {
	var out []string
	body := []byte(s)
	for more := true; more; {
		var arg []byte
		arg, body, more = nextArg(body)
		out = append(out, string(arg))
	}
	return out
}

func checkSplitters(t *testing.T, s string) {
	t.Helper()
	if got, want := allOps(s), oldSplitOps(s); !reflect.DeepEqual(got, want) {
		t.Errorf("tokens of %q = %q, want %q", s, got, want)
	}
	if got, want := allArgs(s), oldSplitArgs(s); !reflect.DeepEqual(got, want) {
		t.Errorf("arguments of %q = %q, want %q", s, got, want)
	}
}

var splitterCases = []string{
	"",
	" ",
	"@100 -fire(7) +hire(7) +badge('ann', 'red')",
	"@1\t+p(1)  \t +q(2) ",
	"  @1 +p(1)",
	"@2 +name('a b')",
	"@2 +name('a, b', 'c) d', '(e')",
	"@3 +p(1, 2) +q((3) 4) +r(5",  // nested and never-closed parentheses
	"@4 +p(1)) +q(2) ) +r(3)",     // unbalanced ): ignored at depth 0
	"@5 +p('it''s') +q('unclosed", // doubled and unterminated quotes
	"@6 +p('a' 'b') ' +q(1)",
	"1, 'a,b', ,'c''', d,",
	",",
	"'",
	"(",
	")",
}

// FuzzSplitters holds the slicing tokenisers to the copying ones: on
// splitterCases under plain `go test`, on arbitrary input under -fuzz.
func FuzzSplitters(f *testing.F) {
	for _, s := range splitterCases {
		f.Add(s)
	}
	f.Fuzz(checkSplitters)
}
