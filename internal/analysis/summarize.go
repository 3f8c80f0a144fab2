package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// PackageSummaries holds the per-function effect summaries of one
// package: the direct allocation sites, lock acquisitions and network
// calls each function performs, plus the
// fixpoint-resolved transitive FuncFact each exports to dependents.
type PackageSummaries struct {
	Path    string
	Funcs   map[string]*funcSummary
	ByDecl  map[*ast.FuncDecl]*funcSummary
	Metrics []MetricFact
}

type site struct {
	pos  token.Pos
	what string
}

type callSite struct {
	pos   token.Pos
	fn    *types.Func
	iface bool // dynamic dispatch through an interface
}

type funcSummary struct {
	decl *ast.FuncDecl
	obj  *types.Func

	// Lexical scan (includes all nested func literals): allocation
	// evidence for noalloc.
	allocSites []site     // direct allocating constructs, suppression-pruned
	allocCalls []callSite // static calls, checked against callee facts

	// Direct-region scan (excludes func literals that are not invoked
	// on the spot): effects that happen when this function runs.
	acquires    map[string]token.Pos
	directCalls []callSite

	// Scanner indexes retained for lockorder's region walk.
	immediateLits map[*ast.FuncLit]bool
	localFnLits   map[types.Object]*ast.FuncLit

	fact FuncFact
}

// metricMethods are the obs.Registry registration entry points.
var metricMethods = map[string]bool{
	"Counter": true, "CounterVec": true,
	"Gauge": true, "GaugeVec": true,
	"FloatGauge": true,
	"Histogram":  true, "HistogramVec": true,
}

// Summarize scans every function of pkg and resolves the transitive
// facts against the already-computed facts of module-local deps.
func Summarize(pkg *LoadedPackage, dirs *Directives, depFacts map[string]*PackageFacts) *PackageSummaries {
	sums := &PackageSummaries{
		Path:   pkg.Path,
		Funcs:  map[string]*funcSummary{},
		ByDecl: map[*ast.FuncDecl]*funcSummary{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			s := &funcSummary{decl: fd, obj: obj, acquires: map[string]token.Pos{}}
			s.fact.Noalloc = dirs.Noalloc(fd)
			sc := &fnScanner{pkg: pkg, dirs: dirs, sum: s}
			sc.scan()
			sums.Funcs[obj.FullName()] = s
			sums.ByDecl[fd] = s
		}
	}
	sums.Metrics = collectMetrics(pkg)
	resolveFacts(pkg, sums, dirs, depFacts)
	return sums
}

// resolveFacts runs the intra-package fixpoint, folding callee facts
// (same package and module-local deps) into each function's FuncFact.
func resolveFacts(pkg *LoadedPackage, sums *PackageSummaries, dirs *Directives, depFacts map[string]*PackageFacts) {
	lookup := func(fn *types.Func) (FuncFact, bool) {
		if fn.Pkg() != nil && fn.Pkg().Path() == pkg.Path {
			if s, ok := sums.Funcs[fn.FullName()]; ok {
				return s.fact, true
			}
			return FuncFact{}, false
		}
		if fn.Pkg() != nil {
			if pf := depFacts[fn.Pkg().Path()]; pf != nil {
				f, ok := pf.Funcs[fn.FullName()]
				return f, ok
			}
		}
		return FuncFact{}, false
	}
	fset := pkg.Fset
	for changed := true; changed; {
		changed = false
		for _, s := range sums.Funcs {
			// Allocation: first direct site, else first call whose
			// callee's fact carries evidence (skipping call sites the
			// author suppressed with //rtic:allocok).
			if s.fact.Alloc == "" {
				ev := ""
				if len(s.allocSites) > 0 {
					ev = fmt.Sprintf("%s at %s", s.allocSites[0].what, fset.Position(s.allocSites[0].pos))
				} else {
					for _, cs := range s.allocCalls {
						if cs.iface {
							continue
						}
						if f, ok := lookup(cs.fn); ok && f.Alloc != "" {
							if dirs.covered(fset.Position(cs.pos), VerbAllocOK) {
								continue
							}
							ev = truncate(fmt.Sprintf("calls %s (%s): %s",
								cs.fn.FullName(), fset.Position(cs.pos), f.Alloc), 300)
							break
						}
					}
				}
				if ev != "" {
					s.fact.Alloc = ev
					changed = true
				}
			}
			// Lock acquisition: direct Lock() sites plus module callees'.
			for id := range s.acquires {
				if !s.fact.acquiresLock(id) {
					s.fact.Acquires = append(s.fact.Acquires, id)
					changed = true
				}
			}
			for _, cs := range s.directCalls {
				if cs.iface {
					continue
				}
				f, ok := lookup(cs.fn)
				if !ok {
					continue
				}
				for _, id := range f.Acquires {
					if !s.fact.acquiresLock(id) {
						s.fact.Acquires = append(s.fact.Acquires, id)
						changed = true
					}
				}
				if s.fact.Net == "" && f.Net != "" {
					s.fact.Net = truncate(fmt.Sprintf("calls %s (%s): %s",
						cs.fn.FullName(), fset.Position(cs.pos), f.Net), 300)
					changed = true
				}
			}
			// Direct net I/O: any statically-visible call into package net.
			if s.fact.Net == "" {
				for _, cs := range s.directCalls {
					if p := cs.fn.Pkg(); p != nil && p.Path() == "net" {
						s.fact.Net = fmt.Sprintf("calls net.%s at %s", cs.fn.Name(), fset.Position(cs.pos))
						changed = true
						break
					}
				}
			}
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// collectMetrics finds obs.Registry metric registrations anywhere in
// the package (function bodies and package-level var initializers).
func collectMetrics(pkg *LoadedPackage) []MetricFact {
	var out []MetricFact
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !metricMethods[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Name() != "Registry" ||
				named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "obs" {
				return true
			}
			name := ""
			if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				name = constant.StringVal(tv.Value)
			}
			out = append(out, MetricFact{Name: name, Pos: pkg.Fset.Position(call.Pos()).String()})
			return true
		})
	}
	return out
}

// ---- helpers shared by the scanner and the analyzers ----

// staticCallee resolves the statically-known callee of call, if any,
// and whether it dispatches through an interface.
func staticCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, iface bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f, false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				recv := f.Type().(*types.Signature).Recv()
				return f, recv != nil && types.IsInterface(recv.Type())
			}
			return nil, false
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f, false
	}
	return nil, false
}

// isConversion reports whether call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

// builtinName returns the name of the builtin being called, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// pointerShaped reports whether values of t fit in an interface's
// data word without allocating (pointers, channels, maps, funcs,
// unsafe pointers).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// lockID names the lock a mutex expression denotes: pkgpath.Type.field
// for struct fields, pkgpath.var for package-level mutexes, "" when
// unclassifiable (local mutexes, complex expressions).
func lockID(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		recvTV, ok := info.Types[e.X]
		if !ok {
			return ""
		}
		t := recvTV.Type
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

// mutexOp classifies call as a sync.Mutex/RWMutex acquire or release,
// returning the lock identity.
func mutexOp(info *types.Info, call *ast.CallExpr) (id string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return lockID(info, sel.X), true, false
	case "Unlock", "RUnlock":
		return lockID(info, sel.X), false, true
	}
	return "", false, false
}

// allowedExternal lists non-module callees noalloc accepts: proven
// allocation-free (or pool-amortized) stdlib operations the hot paths
// rely on. Everything else outside the module is assumed to allocate.
func allowedExternal(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sync/atomic", "math", "math/bits":
		return true
	case "sync":
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "Get", "Put":
			return true
		}
	case "sort":
		return strings.HasPrefix(fn.Name(), "Search")
	case "strings":
		switch fn.Name() {
		case "Compare", "EqualFold", "HasPrefix", "HasSuffix", "IndexByte", "Contains":
			return true
		}
	case "bytes":
		switch fn.Name() {
		case "Equal", "Compare", "HasPrefix", "IndexByte":
			return true
		}
	case "hash/maphash":
		return fn.Name() == "Bytes" || fn.Name() == "String"
	case "strconv":
		return strings.HasPrefix(fn.Name(), "Append")
	case "encoding/binary":
		return strings.HasPrefix(fn.Name(), "Append") || strings.HasPrefix(fn.Name(), "Put")
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Sub", "Add", "Seconds", "Nanoseconds", "Milliseconds", "Microseconds":
			return true
		}
	}
	return false
}
