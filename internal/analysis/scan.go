package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// fnScanner performs the two body scans behind one funcSummary:
//
//   - the lexical allocation scan, which covers every nested func
//     literal (an allocation inside a closure defined in a noalloc
//     function is still an allocation whenever it runs), and
//   - the direct-effect scan for lock and network facts, which covers
//     only code that runs when the function itself runs: the body,
//     func literals invoked on the spot, and local closures the body
//     calls — but not returned closures and not `go` statements (a new
//     goroutine does not hold the caller's locks).
type fnScanner struct {
	pkg  *LoadedPackage
	dirs *Directives
	sum  *funcSummary

	immediate    map[*ast.FuncLit]bool
	exemptAppend map[*ast.CallExpr]bool
	exemptConv   map[*ast.CallExpr]bool
	callFuns     map[ast.Expr]bool
	addrLits     map[*ast.CompositeLit]bool
	localFns     map[types.Object]*ast.FuncLit
}

func (sc *fnScanner) info() *types.Info { return sc.pkg.Info }

func (sc *fnScanner) scan() {
	body := sc.sum.decl.Body
	sc.prepass(body)
	sc.allocScan(body)
	sc.directWalk(body, map[*ast.FuncLit]bool{})
	sc.sum.immediateLits = sc.immediate
	sc.sum.localFnLits = sc.localFns
}

// prepass indexes the body: immediately-invoked func literals,
// self-append exemptions, map-index string conversions, call
// positions, and local closures.
func (sc *fnScanner) prepass(body *ast.BlockStmt) {
	sc.immediate = map[*ast.FuncLit]bool{}
	sc.exemptAppend = map[*ast.CallExpr]bool{}
	sc.exemptConv = map[*ast.CallExpr]bool{}
	sc.callFuns = map[ast.Expr]bool{}
	sc.addrLits = map[*ast.CompositeLit]bool{}
	sc.localFns = map[types.Object]*ast.FuncLit{}
	info := sc.info()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			sc.callFuns[fun] = true
			if lit, ok := fun.(*ast.FuncLit); ok {
				sc.immediate[lit] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					sc.addrLits[lit] = true
				}
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if conv, ok := ast.Unparen(n.Index).(*ast.CallExpr); ok && isConversion(info, conv) {
						// m[string(b)] compiles without allocating.
						sc.exemptConv[conv] = true
					}
				}
			}
		case *ast.AssignStmt:
			sc.prepassAssign(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					sc.bindLit(info.Defs[name], n.Values[i])
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					if builtinName(info, call) == "append" {
						// The caller-reassigns append idiom:
						// return append(dst, ...) grows amortized.
						sc.exemptAppend[call] = true
					}
				}
			}
		}
		return true
	})
}

func (sc *fnScanner) prepassAssign(n *ast.AssignStmt) {
	info := sc.info()
	if len(n.Lhs) != len(n.Rhs) {
		return // tuple assignment from one call: binds no func literal
	}
	for i, lhs := range n.Lhs {
		rhs := n.Rhs[i]
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(info, call) == "append" {
			if len(call.Args) > 0 && types.ExprString(lhs) == types.ExprString(call.Args[0]) {
				// Self-append: x = append(x, ...) amortizes its growth
				// over the pooled buffer's lifetime.
				sc.exemptAppend[call] = true
			}
		}
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		sc.bindLit(obj, rhs)
	}
}

// bindLit records a local variable bound to a func literal.
func (sc *fnScanner) bindLit(obj types.Object, rhs ast.Expr) {
	if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok && obj != nil {
		sc.localFns[obj] = lit
	}
}

// ---- allocation scan (lexical, includes all func literals) ----

func (sc *fnScanner) allocScan(body *ast.BlockStmt) {
	info := sc.info()
	var raw []site
	add := func(pos token.Pos, format string, args ...any) {
		raw = append(raw, site{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sc.allocCall(n, add)
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					add(n.Pos(), "slice literal allocates")
				case *types.Map:
					add(n.Pos(), "map literal allocates")
				default:
					if sc.addrLits[n] {
						add(n.Pos(), "&%s escapes to the heap", types.ExprString(n.Type))
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
					add(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if tv, ok := info.Types[n.Lhs[0]]; ok && isString(tv.Type) {
					add(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.FuncLit:
			if !sc.immediate[n] {
				add(n.Pos(), "func literal allocates a closure")
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement allocates a goroutine")
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !sc.callFuns[n] {
				add(n.Pos(), "method value %s allocates a closure", types.ExprString(n))
			}
		}
		return true
	})
	// Prune author-accepted sites; the suppression is thereby "used".
	for _, s := range raw {
		if sc.dirs.suppress(sc.pkg.Fset.Position(s.pos), VerbAllocOK) {
			continue
		}
		sc.sum.allocSites = append(sc.sum.allocSites, s)
	}
}

func (sc *fnScanner) allocCall(call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	info := sc.info()
	if isConversion(info, call) {
		sc.allocConversion(call, add)
		return
	}
	if b := builtinName(info, call); b != "" {
		switch b {
		case "make":
			add(call.Pos(), "make allocates")
		case "new":
			add(call.Pos(), "new allocates")
		case "append":
			if !sc.exemptAppend[call] {
				add(call.Pos(), "append to a fresh destination allocates (self-append x = append(x, ...) is exempt)")
			}
		}
		return
	}
	sc.boxedArgs(call, add)
	fn, iface := staticCallee(info, call)
	if fn == nil || iface {
		// Dynamic dispatch (func values, interface methods) is not
		// followed; TestPlanAllocationFree is the runtime backstop.
		return
	}
	if sc.pkg.ModuleLocal(fn) {
		sc.sum.allocCalls = append(sc.sum.allocCalls, callSite{pos: call.Pos(), fn: fn})
		return
	}
	if !allowedExternal(fn) {
		add(call.Pos(), "calls %s (outside the module; assumed to allocate)", fn.FullName())
	}
}

func (sc *fnScanner) allocConversion(call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	info := sc.info()
	if len(call.Args) != 1 {
		return
	}
	dst := info.Types[ast.Unparen(call.Fun)].Type
	srcTV, ok := info.Types[call.Args[0]]
	if !ok {
		return
	}
	src := srcTV.Type
	if types.IsInterface(dst) && src != nil && !types.IsInterface(src) && !srcTV.IsNil() && !pointerShaped(src) {
		add(call.Pos(), "conversion boxes %s into an interface", src)
		return
	}
	if sc.exemptConv[call] {
		return
	}
	if (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src)) {
		add(call.Pos(), "conversion between string and byte/rune slice copies")
	}
}

// boxedArgs flags concrete non-pointer-shaped arguments passed to
// interface parameters — each such pass heap-boxes the value.
func (sc *fnScanner) boxedArgs(call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	info := sc.info()
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() || types.IsInterface(at.Type) || pointerShaped(at.Type) {
			continue
		}
		add(arg.Pos(), "argument boxes %s into an interface parameter", at.Type)
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// ---- direct-effect scan (locks, net) ----

func (sc *fnScanner) directWalk(n ast.Node, seen map[*ast.FuncLit]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return sc.immediate[n]
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sc.directCall(n, seen)
		}
		return true
	})
}

func (sc *fnScanner) directCall(call *ast.CallExpr, seen map[*ast.FuncLit]bool) {
	info := sc.info()
	if isConversion(info, call) || builtinName(info, call) != "" {
		return
	}
	if id, acq, _ := mutexOp(info, call); acq && id != "" {
		if _, ok := sc.sum.acquires[id]; !ok {
			sc.sum.acquires[id] = call.Pos()
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if lit := sc.localFns[info.Uses[id]]; lit != nil && !seen[lit] {
			// A local closure the body invokes runs as part of this
			// function: scan its body in place.
			seen[lit] = true
			sc.directWalk(lit.Body, seen)
			return
		}
	}
	if fn, iface := staticCallee(info, call); fn != nil {
		sc.sum.directCalls = append(sc.sum.directCalls, callSite{pos: call.Pos(), fn: fn, iface: iface, recv: recvType(info, call)})
	}
}
