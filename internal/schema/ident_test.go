package schema

import (
	"regexp"
	"testing"
)

// identRe is the language IsIdent replaced.
var identRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// TestIsIdentMatchesRegexp holds IsIdent to the regexp on every string
// of up to two bytes, non-ASCII bytes included, and on edge cases.
func TestIsIdentMatchesRegexp(t *testing.T) {
	check := func(s string) {
		if got, want := IsIdent(s), identRe.MatchString(s); got != want {
			t.Errorf("IsIdent(%q) = %v, the regexp says %v", s, got, want)
		}
	}
	check("")
	for a := 0; a < 256; a++ {
		check(string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
	}
	for _, s := range []string{
		"no_quick_rehire", "_", "__", "_9", "9_", "a9", "abc\n", "abc ", " abc", "a-b", "a.b",
		"héllo", "ſ", "K", "straße", "a\x00", "\x00a", "Z_z9_", "ab$", "^ab",
	} {
		check(s)
	}
}
