package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<name> as a real (typechecked) package,
// runs the full suite with a fixture-specific config, and compares the
// diagnostics against the fixture's `// want` comments — the same
// contract as golang.org/x/tools' analysistest, rebuilt on the local
// framework.
func runFixture(t *testing.T, name string, cfgFor func(pkgPath string) *Config) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	var target *LoadedPackage
	for _, p := range pkgs {
		if p.Root {
			target = p
		}
	}
	if target == nil {
		t.Fatalf("fixture %s: no root package", name)
	}
	diags, _, err := RunAnalyzers(target, cfgFor(target.Path), nil, Suite()...)
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}

	wants := collectWants(t, target)
	matched := map[int]bool{}
	for _, d := range diags {
		full := d.Analyzer + ": " + d.Message
		found := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(full) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantLineRe matches a trailing want comment; the regexes follow in
// backquotes or double quotes.
var wantLineRe = regexp.MustCompile(`//\s*want\s+(.+)$`)

var wantArgRe = regexp.MustCompile("`([^`]+)`" + `|"((?:[^"\\]|\\.)*)"`)

func collectWants(t *testing.T, pkg *LoadedPackage) []wantExpectation {
	t.Helper()
	var out []wantExpectation
	for path, src := range pkg.Src {
		for i, line := range strings.Split(string(src), "\n") {
			m := wantLineRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRe.FindAllStringSubmatch(m[1], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: want comment with no pattern", path, i+1)
			}
			for _, a := range args {
				pat := a[1]
				if pat == "" {
					pat = a[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
				}
				out = append(out, wantExpectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return out
}

func TestNoAllocFixture(t *testing.T) {
	runFixture(t, "noallocfix", func(string) *Config { return &Config{} })
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, "lockfix", func(pkgPath string) *Config {
		return &Config{Locks: []string{pkgPath + ".Log.mu"}, NetTypes: []string{pkgPath + ".Conn", pkgPath + ".Socket"}}
	})
}

func TestErrDiscardFixture(t *testing.T) {
	runFixture(t, "errfix", func(pkgPath string) *Config {
		return &Config{ErrPackages: []string{pkgPath}}
	})
}

// TestMetricHygieneFixture includes the doc-drift guard: the fixture
// registers rtic_fixture_missing_total, which METRICS.md deliberately
// omits, and the run must flag it.
func TestMetricHygieneFixture(t *testing.T) {
	runFixture(t, "obs", func(string) *Config {
		doc, err := filepath.Abs(filepath.Join("testdata", "src", "obs", "METRICS.md"))
		if err != nil {
			t.Fatal(err)
		}
		return &Config{MetricsDocPath: doc}
	})
}

// TestMetricDocDriftFails double-checks the drift guard end to end
// without want comments: pointing the catalogue at an empty doc must
// produce one undocumented-metric finding per registration.
func TestMetricDocDriftFails(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "obs"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	var target *LoadedPackage
	for _, p := range pkgs {
		if p.Root {
			target = p
		}
	}
	missing := filepath.Join(t.TempDir(), "EMPTY.md")
	writeFile(t, missing, "# nothing documented\n")
	diags, _, err := RunAnalyzers(target, &Config{MetricsDocPath: missing}, nil, MetricHygiene)
	if err != nil {
		t.Fatal(err)
	}
	// The metric the real catalogue documents must now be flagged:
	// removing a doc entry (or adding a metric without one) fails the
	// build.
	drifted := false
	for _, d := range diags {
		if strings.Contains(d.Message, `"rtic_fixture_documented_total" is not documented`) {
			drifted = true
		}
	}
	if !drifted {
		t.Fatalf("empty catalogue not flagged; diagnostics: %s", fmt.Sprint(diags))
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
