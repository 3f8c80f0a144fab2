// Package analysis is the engine's custom static-analysis suite: a
// small go/analysis-style framework plus four analyzers (noalloc,
// lockorder, errdiscard, metrichygiene) that machine-check the
// implementation invariants the hot paths depend on — steady-state
// plan execution must not allocate, nothing reachable under the
// monitor commit lock or wal.Log.mu may re-acquire it or touch the
// network, durability errors must never be silently discarded, and
// every metric is catalogued.
//
// The framework is built directly on the standard library (go/ast,
// go/types, go/importer) rather than golang.org/x/tools so the repo
// stays dependency-free; cmd/rticvet adapts it to the `go vet
// -vettool` unit-checker protocol. See docs/ANALYSIS.md for the rule
// catalogue and annotation syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named rule set run over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Config carries the invariant-specific knobs so the same analyzers
// run against both the real tree and self-contained test fixtures.
type Config struct {
	// Locks are the critical lock identities (pkgpath.Type.field) whose
	// hold regions lockorder polices.
	Locks []string
	// NetTypes are the named types (pkgpath.Type) whose methods are
	// network I/O, besides everything in package net: lockorder reports
	// a call to one under a critical lock.
	NetTypes []string
	// ErrPackages are the durability-critical package paths errdiscard
	// polices.
	ErrPackages []string
	// MetricsDocPath is the metrics catalogue every registered metric
	// must appear in ("" disables the doc check).
	MetricsDocPath string
}

// DefaultConfig returns the production configuration for this
// repository. metricsDoc is the path to docs/OBSERVABILITY.md ("" to
// skip the catalogue check, e.g. for packages outside the module).
func DefaultConfig(metricsDoc string) *Config {
	return &Config{
		Locks: []string{
			"rtic/internal/wal.Log.mu",
			"rtic/internal/monitor.Monitor.mu",
		},
		// The server's connections, and the daemon's sockets, which
		// reach the network without package net.
		NetTypes: []string{
			"rtic/internal/monitor.Conn",
			"rtic/internal/sock.Conn",
			"rtic/internal/sock.Listener",
		},
		ErrPackages: []string{
			"rtic/internal/wal",
			"rtic/internal/vfs",
			"rtic/internal/monitor",
		},
		MetricsDocPath: metricsDoc,
	}
}

// A Pass carries one analyzed package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File // non-test files only
	Pkg      *types.Package
	Info     *types.Info
	Config   *Config

	// Dirs indexes the //rtic: directives of the package's files.
	Dirs *Directives
	// Sums holds the per-function summaries of this package (computed
	// once, shared by all analyzers).
	Sums *PackageSummaries
	// DepFacts maps module-local dependency package paths to their
	// serialized facts.
	DepFacts map[string]*PackageFacts

	diags *[]Diagnostic
}

// Report records a diagnostic unless a matching suppression directive
// covers its line. kind names the suppression verb that can silence
// this diagnostic ("" = not suppressible).
func (p *Pass) Report(pos token.Pos, kind, format string, args ...any) {
	position := p.Fset.Position(pos)
	if kind != "" && p.Dirs != nil && p.Dirs.suppress(position, kind) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// fact returns the FuncFact for fn, consulting this package's
// summaries first and dependency facts second.
func (p *Pass) fact(fn *types.Func) (FuncFact, bool) {
	id := fn.FullName()
	if p.Sums != nil {
		if s, ok := p.Sums.Funcs[id]; ok {
			return s.fact, true
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		if pf, ok := p.DepFacts[pkg.Path()]; ok && pf != nil {
			if f, ok := pf.Funcs[id]; ok {
				return f, true
			}
		}
	}
	return FuncFact{}, false
}

// RunAnalyzers runs the given analyzers over one loaded package and
// returns the diagnostics — including directive-hygiene findings
// (malformed, misplaced, or unused //rtic: annotations) — plus the
// package's exported facts for its dependents.
func RunAnalyzers(pkg *LoadedPackage, cfg *Config, depFacts map[string]*PackageFacts, analyzers ...*Analyzer) ([]Diagnostic, *PackageFacts, error) {
	var diags []Diagnostic
	dirs := CollectDirectives(pkg.Fset, pkg.Files, pkg.Src)
	sums := Summarize(pkg, dirs, depFacts, cfg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Config:   cfg,
			Dirs:     dirs,
			Sums:     sums,
			DepFacts: depFacts,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return diags, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = append(diags, dirs.hygiene(analyzers)...)
	sortDiagnostics(diags)
	return diags, sums.Facts(), nil
}

// Suite returns the full analyzer suite in canonical order.
func Suite() []*Analyzer {
	return []*Analyzer{NoAlloc, LockOrder, ErrDiscard, MetricHygiene}
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return ds[i].Message < ds[j].Message
	})
}

// typeIsError reports whether t is (or trivially implements) the
// built-in error interface.
func typeIsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return true
	}
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}
