package active

import (
	"fmt"

	"rtic/internal/check"
	"rtic/internal/mtl"
	"rtic/internal/value"
)

// The constraint→rule compiler. Every temporal subformula of a
// constraint's denial becomes an ordinary relation:
//
//	rtic_aux_<id>(x̄, ts)   — for once/since: the bounded history encoding,
//	                          one tuple per (binding, surviving anchor time);
//	rtic_prev_<id>(x̄)      — for prev: the argument's bindings in the
//	                          previous state (rtic_prevnew_<id> stages the
//	                          refresh);
//	rtic_viol_<name>(x̄)    — per constraint: the current violation witnesses.
//
// Temporal operators inside conditions are replaced by first-order
// "satisfaction views" over these relations, e.g.
//
//	once[a,b] φ   ⇝   exists __ts: rtic_aux_j(x̄, __ts) and
//	                  __ts >= now−b and __ts <= now−a
//
// where now−a / now−b arrive as per-firing parameters. The generated
// rule set reproduces exactly the update the incremental checker
// performs in code — the equivalence tests hold the two routes together.

type nodeKind uint8

const (
	kindSince nodeKind = iota
	kindPrev
)

// nodeInfo describes one compiled temporal subformula.
type nodeInfo struct {
	id   int
	kind nodeKind
	node mtl.Formula
	vars []string // fv(node), sorted

	// since/once:
	iv     mtl.Interval
	leftT  mtl.Formula // translated chain formula (Truth{true} for once)
	rightT mtl.Formula // translated anchor formula
	isOnce bool

	// prev:
	argT  mtl.Formula
	fvars []string // fv of the argument
}

func (n *nodeInfo) auxRel() string  { return fmt.Sprintf("%saux_%d", ReservedPrefix, n.id) }
func (n *nodeInfo) prevRel() string { return fmt.Sprintf("%sprev_%d", ReservedPrefix, n.id) }
func (n *nodeInfo) newRel() string  { return fmt.Sprintf("%sprevnew_%d", ReservedPrefix, n.id) }

func (n *nodeInfo) tsVar() string   { return fmt.Sprintf("__ts%d", n.id) }
func (n *nodeInfo) tsVar2() string  { return fmt.Sprintf("__ts%db", n.id) }
func (n *nodeInfo) loVar() string   { return fmt.Sprintf("__lo%d", n.id) }
func (n *nodeInfo) hiVar() string   { return fmt.Sprintf("__hi%d", n.id) }
func (n *nodeInfo) goodVar() string { return fmt.Sprintf("__pgood%d", n.id) }

// auxAtom builds rtic_aux_id(x̄, tsName).
func (n *nodeInfo) auxAtom(tsName string) *mtl.Atom {
	args := make([]mtl.Term, 0, len(n.vars)+1)
	for _, v := range n.vars {
		args = append(args, mtl.Var{Name: v})
	}
	args = append(args, mtl.Var{Name: tsName})
	return &mtl.Atom{Rel: n.auxRel(), Args: args}
}

func varAtom(rel string, vars []string) *mtl.Atom {
	args := make([]mtl.Term, len(vars))
	for i, v := range vars {
		args[i] = mtl.Var{Name: v}
	}
	return &mtl.Atom{Rel: rel, Args: args}
}

// view returns the first-order satisfaction view of the node at the
// current commit time.
func (n *nodeInfo) view() mtl.Formula {
	switch n.kind {
	case kindSince:
		ts := n.tsVar()
		conj := []mtl.Formula{
			n.auxAtom(ts),
			&mtl.Cmp{Op: mtl.OpLe, L: mtl.Var{Name: ts}, R: mtl.Var{Name: n.hiVar()}},
		}
		if !n.iv.Unbounded {
			conj = append(conj, &mtl.Cmp{Op: mtl.OpGe, L: mtl.Var{Name: ts}, R: mtl.Var{Name: n.loVar()}})
		}
		return &mtl.Exists{Vars: []string{ts}, F: mtl.AndAll(conj)}
	default: // kindPrev
		return &mtl.And{
			L: varAtom(n.prevRel(), n.fvars),
			R: &mtl.Cmp{Op: mtl.OpEq, L: mtl.Var{Name: n.goodVar()}, R: mtl.Const{Val: value.Int(1)}},
		}
	}
}

// compiled is the full rule program of one constraint.
type compiled struct {
	con     *check.Constraint
	nodes   []*nodeInfo // post-order (children first)
	violRel string
	rules   []*Rule
}

// compiler assigns globally unique node ids across constraints.
type compiler struct {
	nextID int
}

// translate rewrites a kernel formula, replacing every temporal node by
// its satisfaction view and collecting node infos post-order.
func (cp *compiler) translate(f mtl.Formula, nodes *[]*nodeInfo) mtl.Formula {
	node := func(info *nodeInfo) mtl.Formula {
		info.id, info.node, info.vars = cp.nextID, f, mtl.FreeVars(f)
		cp.nextID++
		*nodes = append(*nodes, info)
		return info.view()
	}
	switch n := f.(type) {
	case *mtl.Not:
		return &mtl.Not{F: cp.translate(n.F, nodes)}
	case *mtl.And:
		return &mtl.And{L: cp.translate(n.L, nodes), R: cp.translate(n.R, nodes)}
	case *mtl.Or:
		return &mtl.Or{L: cp.translate(n.L, nodes), R: cp.translate(n.R, nodes)}
	case *mtl.Exists:
		return &mtl.Exists{Vars: n.Vars, F: cp.translate(n.F, nodes)}
	case *mtl.Once:
		return node(&nodeInfo{kind: kindSince, iv: n.I, leftT: mtl.Truth{Bool: true}, rightT: cp.translate(n.F, nodes), isOnce: true})
	case *mtl.Since:
		leftT := cp.translate(n.L, nodes)
		return node(&nodeInfo{kind: kindSince, iv: n.I, leftT: leftT, rightT: cp.translate(n.R, nodes)})
	case *mtl.Prev:
		return node(&nodeInfo{kind: kindPrev, iv: n.I, argT: cp.translate(n.F, nodes), fvars: mtl.FreeVars(n.F)})
	default: // Truth, Atom, Cmp: the kernel has no other node
		return f
	}
}

// compileConstraint builds the node set and rule program of one
// constraint. Priorities:
//
//	1000+  maintenance of the bounded encoding (post-order, so
//	       children's views answer for the new state before parents read
//	       them)
//	1e6+   violation-table refresh
//	2e6+   prev staging (reads the pre-refresh views)
//	3e6+   prev swap
func (cp *compiler) compileConstraint(con *check.Constraint) (*compiled, error) {
	if !mtl.IsKernel(con.Denial) {
		return nil, fmt.Errorf("active: constraint %q: denial %q is not in kernel form", con.Name, con.Denial.String())
	}
	var nodes []*nodeInfo
	denialT := cp.translate(con.Denial, &nodes)
	c := &compiled{
		con:     con,
		nodes:   nodes,
		violRel: ReservedPrefix + "viol_" + con.Name,
	}
	params := paramBinder(nodes)

	for order, n := range nodes {
		base := 1000 + 10*order
		switch n.kind {
		case kindSince:
			c.rules = append(c.rules, n.sinceRules(base, params)...)
		case kindPrev:
			c.rules = append(c.rules, n.prevRules(params)...)
		}
	}

	// Violation-table refresh: clear, then fill from the translated denial.
	violAtom := varAtom(c.violRel, con.Vars)
	c.rules = append(c.rules,
		&Rule{
			Name:      "clear_" + c.violRel,
			Priority:  1_000_000,
			Condition: violAtom,
			Actions:   []Action{{Insert: false, Rel: c.violRel, Args: violAtom.Args}},
		},
		&Rule{
			Name:       "fill_" + c.violRel,
			Priority:   1_000_001,
			Condition:  denialT,
			BindParams: params,
			Actions:    []Action{{Insert: true, Rel: c.violRel, Args: violAtom.Args}},
		},
	)
	return c, nil
}

// sinceRules generates the maintenance program of one since/once node:
// break the chain, record new anchors, prune the window.
func (n *nodeInfo) sinceRules(base int, params func(uint64, uint64, bool) map[string]value.Value) []*Rule {
	ts := n.tsVar()
	aux := n.auxAtom(ts)
	var rules []*Rule

	if !n.isOnce {
		rules = append(rules, &Rule{
			Name:       fmt.Sprintf("break_%s", n.auxRel()),
			Priority:   base,
			Condition:  &mtl.And{L: aux, R: &mtl.Not{F: n.leftT}},
			BindParams: params,
			Actions:    []Action{{Insert: false, Rel: n.auxRel(), Args: aux.Args}},
		})
	}

	rules = append(rules, &Rule{
		Name:       fmt.Sprintf("anchor_%s", n.auxRel()),
		Priority:   base + 1,
		Condition:  n.rightT,
		BindParams: params,
		Actions:    []Action{{Insert: true, Rel: n.auxRel(), Args: n.auxAtom("__now").Args}},
	})

	if n.iv.Unbounded {
		// Keep only the earliest anchor per binding.
		aux2 := n.auxAtom(n.tsVar2())
		rules = append(rules, &Rule{
			Name:     fmt.Sprintf("dedup_%s", n.auxRel()),
			Priority: base + 2,
			Condition: mtl.AndAll([]mtl.Formula{
				aux, aux2,
				&mtl.Cmp{Op: mtl.OpLt, L: mtl.Var{Name: n.tsVar2()}, R: mtl.Var{Name: ts}},
			}),
			Actions: []Action{{Insert: false, Rel: n.auxRel(), Args: aux.Args}},
		})
	} else {
		// Drop anchors that fell out of the metric window.
		rules = append(rules, &Rule{
			Name:     fmt.Sprintf("prune_%s", n.auxRel()),
			Priority: base + 2,
			Condition: &mtl.And{
				L: aux,
				R: &mtl.Cmp{Op: mtl.OpLt, L: mtl.Var{Name: ts}, R: mtl.Var{Name: n.loVar()}},
			},
			BindParams: params,
			Actions:    []Action{{Insert: false, Rel: n.auxRel(), Args: aux.Args}},
		})
	}
	return rules
}

// prevRules generates the staged refresh of a prev node: fill the
// staging relation from the argument's current bindings (while every
// reader still sees the previous state's answer), then swap.
func (n *nodeInfo) prevRules(params func(uint64, uint64, bool) map[string]value.Value) []*Rule {
	prevAtom := varAtom(n.prevRel(), n.fvars)
	newAtom := varAtom(n.newRel(), n.fvars)
	return []*Rule{
		{
			Name:       "stage_" + n.prevRel(),
			Priority:   2_000_000 + n.id,
			Condition:  n.argT,
			BindParams: params,
			Actions:    []Action{{Insert: true, Rel: n.newRel(), Args: newAtom.Args}},
		},
		{
			Name:      "clear_" + n.prevRel(),
			Priority:  3_000_000 + 2*n.id,
			Condition: prevAtom,
			Actions:   []Action{{Insert: false, Rel: n.prevRel(), Args: prevAtom.Args}},
		},
		{
			Name:      "swap_" + n.prevRel(),
			Priority:  3_000_000 + 2*n.id + 1,
			Condition: newAtom,
			Actions: []Action{
				{Insert: false, Rel: n.newRel(), Args: newAtom.Args},
				{Insert: true, Rel: n.prevRel(), Args: prevAtom.Args},
			},
		},
	}
}

// paramBinder computes every per-firing parameter of a constraint's
// rule program: window cuts for since/once views, gap flags for prev
// views, and the commit time itself.
func paramBinder(nodes []*nodeInfo) func(now, last uint64, started bool) map[string]value.Value {
	infos := append([]*nodeInfo(nil), nodes...)
	return func(now, last uint64, started bool) map[string]value.Value {
		out := map[string]value.Value{
			"__now": value.Int(int64(now)),
		}
		for _, n := range infos {
			switch n.kind {
			case kindSince:
				// ts qualifies iff now−ts ∈ [Lo,Hi] ⟺ ts ∈ [now−Hi, now−Lo].
				out[n.hiVar()] = value.Int(int64(now) - int64(n.iv.Lo))
				if !n.iv.Unbounded {
					out[n.loVar()] = value.Int(int64(now) - int64(n.iv.Hi))
				}
			case kindPrev:
				good := int64(0)
				if started && n.iv.Contains(now-last) {
					good = 1
				}
				out[n.goodVar()] = value.Int(good)
			}
		}
		return out
	}
}
