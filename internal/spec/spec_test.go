package spec

import (
	"reflect"
	"strings"
	"testing"

	"rtic/internal/tuple"
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
	for tok, rest := nextOp(line); tok != ""; tok, rest = nextOp(rest) {
		out = append(out, tok)
	}
	return out
}

func allArgs(body string) []string {
	var out []string
	for more := true; more; {
		var arg string
		arg, body, more = nextArg(body)
		out = append(out, arg)
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
