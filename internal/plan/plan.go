// Package plan compiles kernel formulas — denial kernels and
// auxiliary-node update formulas — into physical query plans. It is the
// engine's only evaluator: every formula check.Compile admits and the
// planner can range-restrict compiles, and core refuses the rest at
// install time.
//
// A plan is compiled per disjunct of the kernel's disjunctive normal
// form: conjunction and existential quantification are distributed over
// disjunction first (see dnf), so every disjunct is a conjunction of
// literals under existential quantifiers. Within a disjunct the
// conjuncts are ordered cheapest-first: equality comparisons that bind a
// variable run as soon as their source is bound, enumerable literals
// (atoms, temporal answers) are picked greedily by how many of their
// variables are already bound, and every conjunct whose variables are
// fully bound — comparisons, negated literals, positive membership
// tests — is pushed to the earliest point it can run, degrading scans
// into O(1) hash probes. Atom scans with a partially bound column set
// register a maintained hash index on the relation (see
// internal/relation) and enumerate only the matching bucket.
//
// Execution uses pooled, reusable binding buffers: a run borrows an
// execState (slot array, probe-key buffer, output row) from the plan's
// free list, so the steady-state hot path of a commit performs no
// allocation.
// Rows passed to the emit callback are scratch and must be cloned to be
// retained. Rows may repeat across disjuncts (and within a disjunct
// when existential variables were inlined); callers that need a set
// collect into fol.Bindings, which deduplicates.
//
// Plans whose disjuncts are flat literal conjunctions additionally
// support delta-driven execution: RetestRow re-decides a previously
// satisfying row by probing every literal, and ExecuteSeeded enumerates
// only the rows derivable from a changed source literal (a transaction's
// net inserts/deletes, or an auxiliary node's answer delta), which turns
// the per-commit cost from O(domain) into O(delta).
package plan

import (
	"fmt"
	"sort"
	"sync"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// Oracle answers a plan's temporal literals: fol.Oracle's enumeration,
// and the key probe fully bound literals go through, where key is the
// tuple.Key encoding of a row aligned with the node's sorted free
// variables. The probe is part of the interface, not an extension
// asserted per probe: an interface-to-interface assertion calls into
// the runtime, which builds the call site's type cache with an
// allocation at a random one of its first thousand-odd calls.
type Oracle interface {
	fol.Oracle
	TestKey(f mtl.Formula, key []byte) (bool, error)
}

// Source identifies a seedable literal occurrence: a base relation or a
// temporal subformula, with the polarity it occurs under. Positive
// sources are seeded from net insertions (answer additions), negated
// sources from net deletions (answer removals). Sources are comparable
// with ==: Compile resolves structurally identical temporal subformulas
// to one Temp (the first occurrence), so within a plan equal sources are
// equal values and ExecuteSeeded never renders a formula to tell them
// apart.
type Source struct {
	IsRel    bool
	Rel      string
	Temp     mtl.Formula // nil for relation sources
	Positive bool
}

type stepKind uint8

const (
	kBind stepKind = iota
	kCmpFilter
	kScanRel
	kProbeRel
	kScanTemp
	kProbeTemp
	kSubProbe
)

// argSpec describes one column of a scan/probe literal, or one operand
// of a comparison.
type argSpec struct {
	isConst bool
	val     value.Value
	slot    int
	// check: the slot already holds a value when the column is reached
	// (bound before the step, or a repeated variable bound by an earlier
	// column of the same literal) — compare instead of assign.
	check bool
}

type step struct {
	kind stepKind
	neg  bool
	rel  string
	temp int // index into Plan.temps
	args []argSpec
	// idxCols are the relation column positions (ascending) of a
	// registered maintained index usable by this scan; empty = full scan.
	idxCols []int
	op      mtl.CmpOp
	l, r    argSpec
	// sub is the compiled inner plan of a ¬∃ literal; subIn maps outer
	// slots to the inner plan's input variables (aligned with sub.inputs).
	sub   *Plan
	subIn []int
}

type seedVariant struct {
	source Source
	args   []argSpec // unification of the seed row against the literal
	steps  []step    // remaining conjuncts, ordered
}

type conj struct {
	nslots int
	steps  []step
	out    []int // slot per plan output variable
	inMap  []int // slot per plan input variable
	// probe is the all-literals-as-probes program used by RetestRow;
	// probeOK reports it could be built (flat disjunct).
	probe   []step
	probeOK bool
	seeds   []seedVariant
}

// Plan is a compiled kernel formula.
type Plan struct {
	formula   mtl.Formula
	vars      []string // sorted free variables = output columns
	inputs    []string // pre-bound variables (sorted)
	temps     []mtl.Formula
	disjuncts []*conj
	seedable  bool
	// free holds the execStates no run is using; a run takes one and
	// gives it back. A locked list rather than a sync.Pool: a pool drops
	// its states at every GC and keeps one list per P, so a steady feed
	// would allocate a state whenever the committing goroutine moved to
	// another P.
	mu   sync.Mutex
	free []*execState
}

type execState struct {
	slots   []value.Value
	key     []byte
	row     tuple.Tuple
	answers []*fol.Bindings
	env     fol.Env
}

// Vars returns the plan's output variables (sorted). Must not be mutated.
func (p *Plan) Vars() []string { return p.vars }

// Formula returns the compiled formula.
func (p *Plan) Formula() mtl.Formula { return p.formula }

// Seedable reports whether every disjunct is a flat literal conjunction,
// enabling RetestRow and ExecuteSeeded.
func (p *Plan) Seedable() bool { return p.seedable }

// Sources returns the distinct seedable literal occurrences across all
// disjuncts. Empty when the plan is not seedable.
func (p *Plan) Sources() []Source {
	if !p.seedable {
		return nil
	}
	var out []Source
	for _, cj := range p.disjuncts {
		for _, sv := range cj.seeds {
			if !containsSource(out, sv.source) {
				out = append(out, sv.source)
			}
		}
	}
	return out
}

// literal is one classified conjunct during compilation.
type literal struct {
	f    mtl.Formula // atom / temporal / cmp / Not(Exists) inner handled via sub
	kind stepKind    // kScanRel, kScanTemp, kCmpFilter (pre-ordering), kSubProbe
	neg  bool
	rel  string
	temp int
	args []mtl.Term // literal columns (atoms: Args; temporal: one Var per sorted free var; ¬∃: one Var per sub input)
	op   mtl.CmpOp
	l, r mtl.Term
	sub  *Plan
}

type compiler struct {
	st     *storage.State
	plan   *Plan
	slotOf map[string]int
	nslots int
	tempIx map[string]int
	// nex counts the existentially bound variables of the disjunct being
	// compiled; each gets a slot name of its own (see scope).
	nex int
}

// scope maps the variables bound by the existential quantifiers around
// a subformula to their slot names. Bound variables are renamed apart —
// "y" becomes "y#1", which no identifier can spell — so sibling
// quantifiers may reuse a name and a quantifier may shadow an outer
// variable. Only literal columns are renamed: a temporal subformula
// stays the node the oracle knows, its columns stay in the order of its
// own sorted variable names.
type scope map[string]string

func (sc scope) term(t mtl.Term) mtl.Term {
	if v, ok := t.(mtl.Var); ok {
		return sc.variable(v.Name)
	}
	return t
}

func (sc scope) variable(name string) mtl.Term {
	if to, ok := sc[name]; ok {
		name = to
	}
	return mtl.Var{Name: name}
}

func (sc scope) variables(names []string) []mtl.Term {
	out := make([]mtl.Term, len(names))
	for i, v := range names {
		out[i] = sc.variable(v)
	}
	return out
}

// dnf distributes conjunction and existential quantification over
// disjunction. Each formula returned is free of disjunction down to its
// literals; the body of a ¬∃ and the operands of a temporal node are
// literals here and keep their shape (the former is compiled as a plan
// of its own, the latter is an auxiliary node's business). The result
// is exponential in the number of disjunctive conjuncts; the linter's
// cost rule prices the plan that comes out.
func dnf(f mtl.Formula) []mtl.Formula {
	switch n := f.(type) {
	case *mtl.Or:
		return append(dnf(n.L), dnf(n.R)...)
	case *mtl.And:
		var out []mtl.Formula
		for _, l := range dnf(n.L) {
			for _, r := range dnf(n.R) {
				out = append(out, &mtl.And{L: l, R: r})
			}
		}
		return out
	case *mtl.Exists:
		out := dnf(n.F)
		for i, d := range out {
			out[i] = &mtl.Exists{Vars: n.Vars, F: d}
		}
		return out
	}
	return []mtl.Formula{f}
}

// Compile builds a plan for the kernel formula f over st's schema.
// inputs lists variables that are bound before execution (they may or
// may not occur free in f). Maintained indexes needed by the plan are
// registered on st's relations. The only errors left are the
// range-restriction backstops: a disjunct that does not bind an output
// variable, or a negated literal or comparison whose variables no
// enumerable literal provides (an ∃ over a negation, which only
// active-domain semantics can decide).
func Compile(f mtl.Formula, st *storage.State, inputs []string) (*Plan, error) {
	p := &Plan{
		formula:  f,
		vars:     mtl.FreeVars(f),
		inputs:   dedupSorted(inputs),
		seedable: true,
	}
	c := &compiler{st: st, plan: p, tempIx: map[string]int{}}
	for _, d := range dnf(f) {
		cj, drop, err := c.compileDisjunct(d)
		if err != nil {
			return nil, err
		}
		if !drop {
			p.disjuncts = append(p.disjuncts, cj)
		}
	}
	if len(p.disjuncts) == 0 {
		p.seedable = false
	}
	return p, nil
}

// compileDisjunct flattens one disjunct into literals, orders them, and
// derives the probe and seed variants. drop reports an identically
// false disjunct.
func (c *compiler) compileDisjunct(d mtl.Formula) (*conj, bool, error) {
	c.slotOf = map[string]int{}
	c.nslots, c.nex = 0, 0
	var lits []literal
	drop, err := c.flatten(d, nil, &lits)
	if err != nil {
		return nil, false, err
	}
	if drop {
		return nil, true, nil
	}

	// Slot assignment: inputs first, then every variable of the literals.
	for _, v := range c.plan.inputs {
		c.slot(v)
	}
	for _, l := range lits {
		for _, t := range l.args {
			if v, ok := t.(mtl.Var); ok {
				c.slot(v.Name)
			}
		}
		for _, t := range []mtl.Term{l.l, l.r} {
			if v, ok := t.(mtl.Var); ok {
				c.slot(v.Name)
			}
		}
	}

	cj := &conj{nslots: c.nslots}
	cj.out = make([]int, len(c.plan.vars))
	for i, v := range c.plan.vars {
		s, ok := c.slotOf[v]
		if !ok {
			// An output variable no literal binds: the disjunct cannot
			// produce full rows (range restriction should prevent this).
			return nil, false, fmt.Errorf("plan: disjunct %q does not bind output variable %q", d.String(), v)
		}
		cj.out[i] = s
	}
	cj.inMap = make([]int, len(c.plan.inputs))
	for i, v := range c.plan.inputs {
		cj.inMap[i] = c.slotOf[v]
	}

	bound := make([]bool, c.nslots)
	for _, s := range cj.inMap {
		bound[s] = true
	}
	steps, err := c.orderSteps(lits, bound)
	if err != nil {
		return nil, false, err
	}
	cj.steps = steps

	// Existential variables or sub-plans disable the delta-driven
	// variants: a previous row does not bind the inner variables, so the
	// literal set cannot be re-decided by probes alone.
	flat := c.nex == 0
	for _, l := range lits {
		if l.kind == kSubProbe {
			flat = false
		}
	}
	if flat {
		allBound := make([]bool, c.nslots)
		for i := range allBound {
			allBound[i] = true
		}
		if probe, err := c.orderSteps(lits, allBound); err == nil {
			cj.probe, cj.probeOK = probe, true
		}
		for li, l := range lits {
			sv, ok := c.seedVariant(lits, li, l)
			if !ok {
				cj.seeds = nil
				flat = false
				break
			}
			if sv.source.IsRel || sv.source.Temp != nil {
				cj.seeds = append(cj.seeds, sv)
			}
		}
	}
	if !flat || !cj.probeOK {
		c.plan.seedable = false
	}
	return cj, false, nil
}

// seedVariant builds the delta-driven variant seeded from literal li:
// the seed row binds the literal's variables, and the remaining
// conjuncts run from there.
func (c *compiler) seedVariant(lits []literal, li int, l literal) (seedVariant, bool) {
	var src Source
	switch l.kind {
	case kScanRel:
		src = Source{IsRel: true, Rel: l.rel, Positive: !l.neg}
	case kScanTemp:
		src = Source{Temp: c.plan.temps[l.temp], Positive: !l.neg}
	default:
		return seedVariant{}, true // comparisons never change truth; no seed needed
	}
	bound := make([]bool, c.nslots)
	for _, v := range c.plan.inputs {
		bound[c.slotOf[v]] = true
	}
	args := make([]argSpec, len(l.args))
	for i, t := range l.args {
		args[i] = c.argOf(t, bound)
		if v, ok := t.(mtl.Var); ok {
			bound[c.slotOf[v.Name]] = true
		}
	}
	rest := append(append([]literal(nil), lits[:li]...), lits[li+1:]...)
	steps, err := c.orderSteps(rest, bound)
	if err != nil {
		return seedVariant{}, false
	}
	return seedVariant{source: src, args: args, steps: steps}, true
}

func (c *compiler) slot(v string) int {
	if s, ok := c.slotOf[v]; ok {
		return s
	}
	s := c.nslots
	c.slotOf[v] = s
	c.nslots++
	return s
}

func (c *compiler) tempIndex(f mtl.Formula) int {
	shape := f.String()
	if i, ok := c.tempIx[shape]; ok {
		return i
	}
	i := len(c.plan.temps)
	c.tempIx[shape] = i
	c.plan.temps = append(c.plan.temps, f)
	return i
}

// flatten classifies the conjuncts of d into literals, inlining
// existential quantifiers (their variables become extra slots, named
// apart through sc). drop reports that the disjunct is identically
// false.
func (c *compiler) flatten(d mtl.Formula, sc scope, out *[]literal) (bool, error) {
	for _, cn := range mtl.Conjuncts(d) {
		switch n := cn.(type) {
		case mtl.Truth:
			if !n.Bool {
				return true, nil
			}
		case *mtl.Atom:
			*out = append(*out, c.atomLiteral(n, false, sc))
		case *mtl.Cmp:
			*out = append(*out, literal{f: n, kind: kCmpFilter, op: n.Op, l: sc.term(n.L), r: sc.term(n.R)})
		case *mtl.Prev, *mtl.Once, *mtl.Since:
			*out = append(*out, c.tempLiteral(cn, false, sc))
		case *mtl.Not:
			switch in := n.F.(type) {
			case *mtl.Atom:
				*out = append(*out, c.atomLiteral(in, true, sc))
			case *mtl.Cmp:
				*out = append(*out, literal{f: in, kind: kCmpFilter, op: in.Op.Negate(), l: sc.term(in.L), r: sc.term(in.R)})
			case *mtl.Prev, *mtl.Once, *mtl.Since:
				*out = append(*out, c.tempLiteral(in, true, sc))
			case *mtl.Exists:
				// The body runs as a plan of its own, with the literal's
				// free variables as its inputs; args are those variables as
				// this disjunct names them.
				sub, err := Compile(in.F, c.st, mtl.FreeVars(n))
				if err != nil {
					return false, err
				}
				*out = append(*out, literal{f: n, kind: kSubProbe, neg: true, sub: sub, args: sc.variables(sub.inputs)})
			case mtl.Truth:
				if in.Bool {
					return true, nil
				}
			default:
				// mtl.Normalize leaves a negation only on the shapes above.
				return false, fmt.Errorf("plan: negated conjunct %q is not in kernel form", cn.String())
			}
		case *mtl.Exists:
			inner := make(scope, len(sc)+len(n.Vars))
			for from, to := range sc {
				inner[from] = to
			}
			for _, v := range n.Vars {
				c.nex++
				inner[v] = fmt.Sprintf("%s#%d", v, c.nex)
			}
			if drop, err := c.flatten(n.F, inner, out); drop || err != nil {
				return drop, err
			}
		default:
			// dnf leaves no disjunction here, mtl.Normalize no sugar.
			return false, fmt.Errorf("plan: conjunct %q is not in kernel form", cn.String())
		}
	}
	return false, nil
}

func (c *compiler) atomLiteral(a *mtl.Atom, neg bool, sc scope) literal {
	args := make([]mtl.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = sc.term(t)
	}
	return literal{f: a, kind: kScanRel, neg: neg, rel: a.Rel, args: args}
}

// tempLiteral builds the literal of a temporal subformula: one column
// per sorted free variable, matching the node's answer layout.
func (c *compiler) tempLiteral(f mtl.Formula, neg bool, sc scope) literal {
	return literal{f: f, kind: kScanTemp, neg: neg, temp: c.tempIndex(f), args: sc.variables(mtl.FreeVars(f))}
}

func (c *compiler) argOf(t mtl.Term, bound []bool) argSpec {
	switch term := t.(type) {
	case mtl.Const:
		return argSpec{isConst: true, val: term.Val}
	default:
		s := c.slotOf[term.(mtl.Var).Name]
		return argSpec{slot: s, check: bound[s]}
	}
}

// orderSteps is the planner proper: given the literals and the initially
// bound slots it emits the cheapest-first step sequence, pushing every
// fully bound conjunct (comparison, probe) to the earliest point its
// variables are bound. It fails when a conjunct can never run — an
// unbound negated literal or comparison at the end (the static safety
// check rejects these up front; this is the planner's backstop).
func (c *compiler) orderSteps(lits []literal, bound []bool) ([]step, error) {
	placed := make([]bool, len(lits))
	var steps []step
	remaining := len(lits)

	litBound := func(l literal) bool {
		for _, t := range l.args {
			if v, ok := t.(mtl.Var); ok && !bound[c.slotOf[v.Name]] {
				return false
			}
		}
		return true
	}
	termBound := func(t mtl.Term) bool {
		v, ok := t.(mtl.Var)
		return !ok || bound[c.slotOf[v.Name]]
	}

	// flush places every conjunct that is runnable as a filter/probe or
	// as a variable-binding comparison, repeating to a fixed point.
	flush := func() {
		for again := true; again; {
			again = false
			for i, l := range lits {
				if placed[i] {
					continue
				}
				switch l.kind {
				case kCmpFilter:
					lb, rb := termBound(l.l), termBound(l.r)
					switch {
					case lb && rb:
						steps = append(steps, step{kind: kCmpFilter, op: l.op, l: c.argOf(l.l, bound), r: c.argOf(l.r, bound)})
					case l.op == mtl.OpEq && lb != rb:
						// Bind the unbound side from the bound one.
						src, dst := l.l, l.r
						if rb {
							src, dst = l.r, l.l
						}
						ds := c.slotOf[dst.(mtl.Var).Name]
						steps = append(steps, step{kind: kBind, l: argSpec{slot: ds}, r: c.argOf(src, bound)})
						bound[ds] = true
					default:
						continue
					}
				case kScanRel:
					if !litBound(l) {
						continue
					}
					steps = append(steps, step{kind: kProbeRel, neg: l.neg, rel: l.rel, args: c.argsOf(l.args, bound)})
				case kScanTemp:
					if !litBound(l) {
						continue
					}
					steps = append(steps, step{kind: kProbeTemp, neg: l.neg, temp: l.temp, args: c.argsOf(l.args, bound)})
				case kSubProbe:
					if !litBound(l) {
						continue
					}
					subIn := make([]int, len(l.args))
					for j, t := range l.args {
						subIn[j] = c.slotOf[t.(mtl.Var).Name]
					}
					steps = append(steps, step{kind: kSubProbe, neg: l.neg, sub: l.sub, subIn: subIn})
				}
				placed[i] = true
				remaining--
				again = true
			}
		}
	}

	flush()
	for remaining > 0 {
		// Pick the cheapest enumerable literal: fewest unbound variables;
		// prefer atom scans over temporal scans on ties, then source order.
		best, bestScore := -1, 1<<30
		for i, l := range lits {
			if placed[i] || l.neg || (l.kind != kScanRel && l.kind != kScanTemp) {
				continue
			}
			unbound := 0
			seen := map[int]bool{}
			for _, t := range l.args {
				if v, ok := t.(mtl.Var); ok {
					s := c.slotOf[v.Name]
					if !bound[s] && !seen[s] {
						unbound++
						seen[s] = true
					}
				}
			}
			score := unbound * 4
			if l.kind == kScanTemp {
				score++
			}
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			var left []string
			for i, l := range lits {
				if !placed[i] {
					left = append(left, l.f.String())
				}
			}
			return nil, fmt.Errorf("plan: conjuncts %v have unbound variables no enumerable literal provides", left)
		}
		l := lits[best]
		st := step{kind: l.kind, rel: l.rel, temp: l.temp}
		st.args = make([]argSpec, len(l.args))
		dup := map[int]bool{}
		var idxCols []int
		for j, t := range l.args {
			switch term := t.(type) {
			case mtl.Const:
				st.args[j] = argSpec{isConst: true, val: term.Val}
				idxCols = append(idxCols, j)
			case mtl.Var:
				s := c.slotOf[term.Name]
				if bound[s] {
					st.args[j] = argSpec{slot: s, check: true}
					idxCols = append(idxCols, j)
				} else if dup[s] {
					st.args[j] = argSpec{slot: s, check: true}
				} else {
					st.args[j] = argSpec{slot: s}
					dup[s] = true
				}
			}
		}
		// A partially bound atom scan gets a maintained hash index on the
		// bound columns; fully unbound scans enumerate the relation.
		if l.kind == kScanRel && len(idxCols) > 0 && len(idxCols) < len(l.args) {
			if rel, err := c.st.Relation(l.rel); err == nil {
				if _, err := rel.EnsureIndex(idxCols); err == nil {
					st.idxCols = idxCols
				}
			}
		}
		steps = append(steps, st)
		placed[best] = true
		remaining--
		for _, t := range l.args {
			if v, ok := t.(mtl.Var); ok {
				bound[c.slotOf[v.Name]] = true
			}
		}
		flush()
	}
	return steps, nil
}

func (c *compiler) argsOf(ts []mtl.Term, bound []bool) []argSpec {
	out := make([]argSpec, len(ts))
	for i, t := range ts {
		out[i] = c.argOf(t, bound)
	}
	return out
}

// getState borrows an execState from the free list, sized for this plan.
//
//rtic:noalloc
func (p *Plan) getState() *execState {
	var es *execState
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		es, p.free = p.free[k-1], p.free[:k-1]
	}
	p.mu.Unlock()
	if es == nil {
		es = &execState{} //rtic:allocok one per run in flight at once, the first time
	}
	n := 0
	for _, cj := range p.disjuncts {
		if cj.nslots > n {
			n = cj.nslots
		}
	}
	if cap(es.slots) < n {
		es.slots = make([]value.Value, n) //rtic:allocok pool warm-up; amortized to zero once the execState has been sized
	}
	es.slots = es.slots[:n]
	if cap(es.row) < len(p.vars) {
		es.row = make(tuple.Tuple, 0, len(p.vars)) //rtic:allocok pool warm-up; amortized to zero once the execState has been sized
	}
	if cap(es.answers) < len(p.temps) {
		es.answers = make([]*fol.Bindings, len(p.temps)) //rtic:allocok pool warm-up; amortized to zero once the execState has been sized
	}
	es.answers = es.answers[:len(p.temps)]
	for i := range es.answers {
		es.answers[i] = nil
	}
	return es
}

//rtic:noalloc
func (p *Plan) putState(es *execState) {
	p.mu.Lock()
	p.free = append(p.free, es)
	p.mu.Unlock()
}

// Execute runs the plan over st with temporal literals answered by
// oracle, calling emit for every satisfying assignment of the output
// variables (rows are scratch; clone to retain; duplicates possible
// across disjuncts). in binds the plan's input variables; nil is valid
// for plans compiled without inputs.
//
//rtic:noalloc
func (p *Plan) Execute(st *storage.State, oracle Oracle, in fol.Env, emit func(tuple.Tuple) bool) error {
	es := p.getState()
	defer p.putState(es)
	for _, cj := range p.disjuncts {
		for i, v := range p.inputs {
			val, ok := in[v]
			if !ok {
				return fmt.Errorf("plan: input variable %q not bound", v) //rtic:allocok cold path: malformed caller input, never taken by a compiled monitor
			}
			es.slots[cj.inMap[i]] = val
		}
		cont, err := p.run(cj, cj.steps, es, st, oracle, emit)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// Eval runs the plan and collects the satisfying assignments into a
// deduplicated binding set over Vars().
func (p *Plan) Eval(st *storage.State, oracle Oracle, in fol.Env) (*fol.Bindings, error) {
	out := fol.NewBindings(p.vars)
	if err := p.EvalInto(st, oracle, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalInto is Eval into a set the caller owns, over Vars(): out is
// emptied and refilled, its storage reused.
func (p *Plan) EvalInto(st *storage.State, oracle Oracle, in fol.Env, out *fol.Bindings) error {
	out.Clear()
	var addErr error
	err := p.Execute(st, oracle, in, func(row tuple.Tuple) bool { //rtic:allocok closure does not escape Execute
		if e := out.AddRow(row); e != nil {
			addErr = e
			return false
		}
		return true
	})
	if err == nil {
		err = addErr
	}
	return err
}

// RetestRow re-decides whether a row (aligned with Vars()) satisfies the
// formula, probing every literal without enumeration. Only valid when
// Seedable().
//
//rtic:noalloc
func (p *Plan) RetestRow(st *storage.State, oracle Oracle, row tuple.Tuple) (bool, error) {
	es := p.getState()
	defer p.putState(es)
	for _, cj := range p.disjuncts {
		for i, s := range cj.out {
			es.slots[s] = row[i]
		}
		hit := false
		cont, err := p.run(cj, cj.probe, es, st, oracle, func(tuple.Tuple) bool { //rtic:allocok closure does not escape p.run (stack-allocated; TestPlanAllocationFree covers this path)
			hit = true
			return false
		})
		_ = cont
		if err != nil {
			return false, err
		}
		if hit {
			return true, nil
		}
	}
	return false, nil
}

// ExecuteSeeded runs only the derivations that use a changed row of
// source: each seed row is unified against the literal and the remaining
// conjuncts run from there. Only valid when Seedable().
//
//rtic:noalloc
func (p *Plan) ExecuteSeeded(st *storage.State, oracle Oracle, src Source, seeds []tuple.Tuple, emit func(tuple.Tuple) bool) error {
	es := p.getState()
	defer p.putState(es)
	for _, cj := range p.disjuncts {
		for _, sv := range cj.seeds {
			if sv.source != src {
				continue
			}
			for _, seed := range seeds {
				if len(seed) != len(sv.args) {
					return fmt.Errorf("plan: seed arity %d for literal of arity %d", len(seed), len(sv.args)) //rtic:allocok cold path: arity mismatch is a caller bug, never taken in steady state
				}
				if !unify(es, sv.args, seed) {
					continue
				}
				cont, err := p.run(cj, sv.steps, es, st, oracle, emit)
				if err != nil {
					return err
				}
				if !cont {
					return nil
				}
			}
		}
	}
	return nil
}

// unify matches a source row against a literal's column spec, assigning
// unbound slots and checking constants and already-bound slots.
//
//rtic:noalloc
func unify(es *execState, args []argSpec, t tuple.Tuple) bool {
	for j, a := range args {
		switch {
		case a.isConst:
			if !t[j].Equal(a.val) {
				return false
			}
		case a.check:
			if !t[j].Equal(es.slots[a.slot]) {
				return false
			}
		default:
			es.slots[a.slot] = t[j]
		}
	}
	return true
}

// buildKey assembles the tuple.Key encoding of the literal's columns in
// es.key (reused across probes).
//
//rtic:noalloc
func (es *execState) buildKey(args []argSpec) []byte {
	k := es.key[:0]
	for _, a := range args {
		if a.isConst {
			k = tuple.AppendValueKey(k, a.val)
		} else {
			k = tuple.AppendValueKey(k, es.slots[a.slot])
		}
	}
	es.key = k
	return k
}

// run executes a step program against the current slots, recursing per
// enumerated row. It returns false when emit stopped the run.
//
//rtic:noalloc
func (p *Plan) run(cj *conj, steps []step, es *execState, st *storage.State, oracle Oracle, emit func(tuple.Tuple) bool) (bool, error) {
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) { //rtic:allocok recursive closure over locals; does not escape run (TestPlanAllocationFree covers this path)
		if i == len(steps) {
			row := es.row[:0]
			for _, s := range cj.out {
				row = append(row, es.slots[s])
			}
			es.row = row
			return emit(row), nil
		}
		s := &steps[i]
		switch s.kind {
		case kBind:
			if s.r.isConst {
				es.slots[s.l.slot] = s.r.val
			} else {
				es.slots[s.l.slot] = es.slots[s.r.slot]
			}
			return rec(i + 1)
		case kCmpFilter:
			l, r := s.l.val, s.r.val
			if !s.l.isConst {
				l = es.slots[s.l.slot]
			}
			if !s.r.isConst {
				r = es.slots[s.r.slot]
			}
			if !s.op.Apply(l, r) {
				return true, nil
			}
			return rec(i + 1)
		case kProbeRel:
			rel, err := st.Relation(s.rel)
			if err != nil {
				return false, err
			}
			if rel.ContainsKeyBytes(es.buildKey(s.args)) == s.neg {
				return true, nil
			}
			return rec(i + 1)
		case kProbeTemp:
			ok, err := p.probeTemp(s, es, oracle)
			if err != nil {
				return false, err
			}
			if ok == s.neg {
				return true, nil
			}
			return rec(i + 1)
		case kSubProbe:
			found := false
			if es.env == nil {
				es.env = make(fol.Env, 8) //rtic:allocok pool warm-up; the subquery env is reused across executions
			}
			for j, v := range s.sub.inputs {
				es.env[v] = es.slots[s.subIn[j]]
			}
			err := s.sub.Execute(st, oracle, es.env, func(tuple.Tuple) bool { //rtic:allocok closure does not escape Execute (TestPlanAllocationFree covers this path)
				found = true
				return false
			})
			for _, v := range s.sub.inputs {
				delete(es.env, v)
			}
			if err != nil {
				return false, err
			}
			if found == s.neg {
				return true, nil
			}
			return rec(i + 1)
		case kScanRel:
			rel, err := st.Relation(s.rel)
			if err != nil {
				return false, err
			}
			cont := true
			var iterErr error
			visit := func(t tuple.Tuple) bool { //rtic:allocok closure does not escape the scan (TestPlanAllocationFree covers this path)
				if len(t) != len(s.args) {
					iterErr = fmt.Errorf("plan: relation %q arity %d, literal arity %d", s.rel, len(t), len(s.args)) //rtic:allocok cold path: arity mismatch is a compile bug
					return false
				}
				if !unify(es, s.args, t) {
					return true
				}
				c, err := rec(i + 1)
				if err != nil {
					iterErr = err
					return false
				}
				if !c {
					cont = false
					return false
				}
				return true
			}
			if len(s.idxCols) > 0 {
				if ix := rel.FindIndex(s.idxCols); ix != nil {
					k := es.key[:0]
					for _, cix := range s.idxCols {
						a := s.args[cix]
						if a.isConst {
							k = tuple.AppendValueKey(k, a.val)
						} else {
							k = tuple.AppendValueKey(k, es.slots[a.slot])
						}
					}
					es.key = k
					for it := ix.LookupKeyBytes(k); ; {
						t, ok := it.Next()
						if !ok || !visit(t) {
							break
						}
					}
					return cont, iterErr
				}
			}
			rel.Each(visit)
			return cont, iterErr
		case kScanTemp:
			ans, err := p.tempAnswer(s.temp, es, oracle)
			if err != nil {
				return false, err
			}
			cont := true
			var iterErr error
			ans.EachRow(func(t tuple.Tuple) bool { //rtic:allocok closure does not escape EachRow (TestPlanAllocationFree covers this path)
				if !unify(es, s.args, t) {
					return true
				}
				c, err := rec(i + 1)
				if err != nil {
					iterErr = err
					return false
				}
				if !c {
					cont = false
					return false
				}
				return true
			})
			return cont, iterErr
		default:
			return false, fmt.Errorf("plan: unknown step kind %d", s.kind) //rtic:allocok unreachable default: every step kind is covered above
		}
	}
	return rec(0)
}

//rtic:noalloc
func (p *Plan) tempAnswer(temp int, es *execState, oracle Oracle) (*fol.Bindings, error) {
	if es.answers[temp] == nil {
		b, err := oracle.Enumerate(p.temps[temp])
		if err != nil {
			return nil, err
		}
		es.answers[temp] = b
	}
	return es.answers[temp], nil
}

// probeTemp decides a fully bound temporal literal through the oracle's
// key probe.
//
//rtic:noalloc
func (p *Plan) probeTemp(s *step, es *execState, oracle Oracle) (bool, error) {
	return oracle.TestKey(p.temps[s.temp], es.buildKey(s.args))
}

func dedupSorted(vars []string) []string {
	vs := append([]string(nil), vars...)
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

func containsSource(xs []Source, v Source) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
