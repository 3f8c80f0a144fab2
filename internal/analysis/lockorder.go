package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder polices the configured critical locks (the monitor commit
// lock monitor.Monitor.mu and the WAL's wal.Log.mu): inside a region
// where one is held, the function must not — directly or through any
// statically-resolved module callee —
//
//   - re-acquire the same lock (self-deadlock), or
//   - call into package net (the commit path must never block on
//     network I/O; PR 6's stall regression).
//
// Held regions span Lock() to the matching Unlock(); a deferred
// Unlock holds to the end of the function. `go` statements and
// returned closures run outside the region and are skipped; dynamic
// calls through func values or non-net interfaces are not followed
// (documented hole — the runtime stall tests remain the backstop).
// Individual sites are accepted with //rtic:lockok <reason>.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "prove critical-lock regions free of re-acquisition and net I/O",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	critical := map[string]bool{}
	for _, id := range pass.Config.Locks {
		critical[id] = true
	}
	for decl, sum := range pass.Sums.ByDecl {
		walksCritical := false
		for id := range sum.acquires {
			if critical[id] {
				walksCritical = true
				break
			}
		}
		if !walksCritical {
			continue
		}
		w := &lockWalker{pass: pass, sum: sum, critical: critical, visited: map[*ast.FuncLit]bool{}}
		w.stmts(decl.Body.List, map[string]token.Pos{})
	}
	return nil
}

type lockWalker struct {
	pass     *Pass
	sum      *funcSummary
	critical map[string]bool
	visited  map[*ast.FuncLit]bool
}

// stmts walks one statement list with the current held-lock set.
// Nested control-flow bodies get a copy: a lock state change inside a
// branch is treated as local to it.
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, acq, rel := mutexOp(w.pass.Info, call); id != "" && (acq || rel) {
				if acq {
					if at, ok := held[id]; ok && w.critical[id] {
						w.pass.Report(call.Pos(), VerbLockOK,
							"re-acquires %s, already held since %s", id, w.pass.Fset.Position(at))
					}
					held[id] = call.Pos()
				} else {
					delete(held, id)
				}
				return
			}
		}
		w.exprs(s.X, held)
	case *ast.DeferStmt:
		if id, _, rel := mutexOp(w.pass.Info, s.Call); id != "" && rel {
			return // deferred unlock: held to the end of the function
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			// A deferred closure runs before any earlier-deferred
			// unlock, i.e. still under the lock.
			w.stmts(lit.Body.List, copyHeld(held))
			return
		}
		w.call(s.Call, held)
		w.exprList(s.Call.Args, held)
	case *ast.GoStmt:
		// A new goroutine does not hold this goroutine's locks.
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprs(e, held)
		}
		for _, e := range s.Lhs {
			w.exprs(e, held)
		}
	case *ast.DeclStmt, *ast.ReturnStmt, *ast.IncDecStmt, *ast.SendStmt:
		w.exprs(s, held)
	case *ast.BlockStmt:
		w.stmts(s.List, copyHeld(held))
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprs(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.exprs(s.Cond, held)
		}
		inner := copyHeld(held)
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.exprs(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.exprs(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.exprList(cc.List, held)
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprs(s.Assign, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, copyHeld(held))
				}
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

// exprs inspects a statement or expression for calls, skipping func
// literals that are not invoked on the spot and `go` statements.
func (w *lockWalker) exprs(n ast.Node, held map[string]token.Pos) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Descend only into literals invoked on the spot; stored
			// closures are scanned when a local call reaches them.
			return w.sum.immediateLits[n]
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			w.call(n, held)
		}
		return true
	})
}

func (w *lockWalker) exprList(list []ast.Expr, held map[string]token.Pos) {
	for _, e := range list {
		w.exprs(e, held)
	}
}

func (w *lockWalker) call(call *ast.CallExpr, held map[string]token.Pos) {
	info := w.pass.Info
	if isConversion(info, call) || builtinName(info, call) != "" {
		return
	}
	if id, acq, _ := mutexOp(info, call); id != "" {
		if acq {
			if at, ok := held[id]; ok && w.critical[id] {
				w.pass.Report(call.Pos(), VerbLockOK,
					"re-acquires %s, already held since %s", id, w.pass.Fset.Position(at))
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if lit := w.sum.localFnLits[info.Uses[id]]; lit != nil && !w.visited[lit] {
			w.visited[lit] = true
			w.stmts(lit.Body.List, copyHeld(held))
			return
		}
	}
	fn, iface := staticCallee(info, call)
	if fn == nil {
		return
	}
	if p := fn.Pkg(); p != nil && p.Path() == "net" {
		for id, at := range held {
			if w.critical[id] {
				w.pass.Report(call.Pos(), VerbLockOK,
					"network I/O (net.%s) under %s (held since %s)", fn.Name(), id, w.pass.Fset.Position(at))
			}
		}
		return
	}
	if iface || !w.pass.Sums.moduleLocalFn(w.pass, fn) {
		return
	}
	fact, ok := w.pass.fact(fn)
	if !ok {
		return
	}
	for id, at := range held {
		if !w.critical[id] {
			continue
		}
		if fact.acquiresLock(id) {
			w.pass.Report(call.Pos(), VerbLockOK,
				"calls %s, which may re-acquire %s (held since %s)", fn.FullName(), id, w.pass.Fset.Position(at))
		}
		if fact.Net != "" {
			w.pass.Report(call.Pos(), VerbLockOK,
				"calls %s under %s (held since %s): %s", fn.FullName(), id, w.pass.Fset.Position(at), fact.Net)
		}
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// moduleLocalFn reports whether fn belongs to the module under
// analysis (its facts are or will be available).
func (s *PackageSummaries) moduleLocalFn(pass *Pass, fn *types.Func) bool {
	p := fn.Pkg()
	if p == nil {
		return false
	}
	if p.Path() == s.Path {
		return true
	}
	_, ok := pass.DepFacts[p.Path()]
	return ok
}
