// Package naive implements the baseline checker the paper's method is
// measured against: it stores the entire timestamped history as full
// state snapshots and evaluates Past MTL semantics directly, walking
// backwards through the history at every check. Memoization keeps a
// single check polynomial, but both its space and its per-transaction
// time grow with history length — exactly the costs bounded history
// encoding eliminates.
package naive

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtic/internal/check"
	"rtic/internal/chronicle"
	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
)

// historyStore is the storage layer behind the checker: full snapshots
// (the default) or the checkpointed delta log.
type historyStore interface {
	Commit(t uint64, tx *storage.Transaction) error
	Len() int
	Time(i int) uint64
	State(i int) *storage.State
	Size() int
}

// Checker is the full-history reference checker.
type Checker struct {
	schema      *schema.Schema
	hist        historyStore
	constraints []*check.Constraint

	evalMemo  map[evalKey]*fol.Bindings
	testMemo  map[testKey]bool
	leadsMemo map[*mtl.LeadsTo]mtl.Formula

	obs *obs.Observer
}

// leadsToMonitor caches the normalized violation form of a deadline
// obligation so memoization keys stay stable across tests.
func (c *Checker) leadsToMonitor(n *mtl.LeadsTo) mtl.Formula {
	if f, ok := c.leadsMemo[n]; ok {
		return f
	}
	f := mtl.Normalize(&mtl.Not{F: n})
	c.leadsMemo[n] = f
	return f
}

type evalKey struct {
	f mtl.Formula
	j int
}

type testKey struct {
	f   mtl.Formula
	j   int
	env string
}

// New returns an empty checker over s, storing full state snapshots.
func New(s *schema.Schema) *Checker {
	return newWith(s, chronicle.NewSnapshotHistory(s))
}

// NewCheckpointed returns a checker whose history is stored as a delta
// log with a full snapshot every interval commits — much less memory
// than New at the cost of state reconstruction on lookups. Answers are
// identical.
func NewCheckpointed(s *schema.Schema, interval int) *Checker {
	return newWith(s, chronicle.NewCheckpointedHistory(s, interval))
}

func newWith(s *schema.Schema, hist historyStore) *Checker {
	return &Checker{
		schema:    s,
		hist:      hist,
		evalMemo:  make(map[evalKey]*fol.Bindings),
		testMemo:  make(map[testKey]bool),
		leadsMemo: make(map[*mtl.LeadsTo]mtl.Formula),
	}
}

// AddConstraint installs a compiled constraint. Constraints added after
// states have been committed only apply to subsequent states.
func (c *Checker) AddConstraint(con *check.Constraint) error {
	for _, existing := range c.constraints {
		if existing.Name == con.Name {
			return fmt.Errorf("naive: duplicate constraint %q", con.Name)
		}
	}
	c.constraints = append(c.constraints, con)
	return nil
}

// Len reports the number of committed states.
func (c *Checker) Len() int { return c.hist.Len() }

// HistoryBytes estimates the memory held by the stored history — the
// baseline's space cost in the experiments.
func (c *Checker) HistoryBytes() int { return c.hist.Size() }

// State returns the current (latest) database state, or the empty
// instance before the first commit. Callers must not mutate it.
func (c *Checker) State() (*storage.State, error) {
	if c.hist.Len() == 0 {
		return storage.NewState(c.schema), nil
	}
	return c.hist.State(c.hist.Len() - 1), nil
}

// SetObserver attaches (or detaches, with nil) the instrumentation
// sinks, keeping the full-history baseline comparable with the
// incremental engine: same commit/constraint metrics; the aux-bytes
// gauge reports the stored history's footprint instead.
func (c *Checker) SetObserver(o *obs.Observer) {
	c.obs = o
}

// Step commits a transaction at time t and checks every constraint in
// the resulting state, returning all violations.
func (c *Checker) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	cs := c.obs.BeginCommit(t, tx.Len())
	if cs.Idle() {
		return c.step(t, tx, nil, nil)
	}
	var detail *obs.Span
	if cs.Detail {
		detail = cs.Span
	}
	vs, err := c.step(t, tx, cs.Metrics, detail)
	if cs.End(err) {
		cs.Metrics.AuxEntries.Set(int64(c.hist.Len()))
		cs.Metrics.AuxBytes.Set(int64(c.hist.Size()))
	}
	return vs, err
}

// step commits and checks; detail (the commit span, when the sink asked
// for detail) collects one constraint.check child per constraint.
func (c *Checker) step(t uint64, tx *storage.Transaction, m *obs.Metrics, detail *obs.Span) ([]check.Violation, error) {
	if err := c.hist.Commit(t, tx); err != nil {
		return nil, err
	}
	i := c.hist.Len() - 1
	var out []check.Violation
	for _, con := range c.constraints {
		var c0 time.Time
		if m != nil || detail != nil {
			c0 = time.Now()
		}
		b, err := c.evalAt(con.Denial, i)
		var vs []check.Violation
		if err != nil {
			err = fmt.Errorf("naive: constraint %s at state %d: %w", con.Name, i, err)
		} else {
			vs, err = check.FromBindings(con, i, t, b)
		}
		if m != nil {
			m.ConstraintSeconds.With(con.Name).Observe(time.Since(c0).Seconds())
			m.Violations.With(con.Name).Add(uint64(len(vs)))
		}
		if detail != nil {
			detail.Children = append(detail.Children, &obs.Span{
				Name: obs.SpanConstraintCheck, Detail: con.Name,
				Time: t, Start: c0, Dur: time.Since(c0), Err: err,
			})
		}
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// TestAt decides an arbitrary formula (sugar connectives included) at
// state j under env; exposed for the cross-checker property tests.
func (c *Checker) TestAt(f mtl.Formula, j int, env fol.Env) (bool, error) {
	if j < 0 || j >= c.hist.Len() {
		return false, fmt.Errorf("naive: state index %d out of range [0,%d)", j, c.hist.Len())
	}
	return c.testAt(f, j, env)
}

// EvalAt enumerates the satisfying bindings of an enumerable kernel
// formula at state j; exposed for the cross-checker property tests.
func (c *Checker) EvalAt(f mtl.Formula, j int) (*fol.Bindings, error) {
	if j < 0 || j >= c.hist.Len() {
		return nil, fmt.Errorf("naive: state index %d out of range [0,%d)", j, c.hist.Len())
	}
	return c.evalAt(f, j)
}

func (c *Checker) evalAt(f mtl.Formula, j int) (*fol.Bindings, error) {
	key := evalKey{f: f, j: j}
	if b, ok := c.evalMemo[key]; ok {
		return b, nil
	}
	ev := fol.NewEvaluator(c.hist.State(j), &oracle{c: c, i: j})
	b, err := ev.Eval(f)
	if err != nil {
		return nil, err
	}
	c.evalMemo[key] = b
	return b, nil
}

func (c *Checker) testAt(f mtl.Formula, j int, env fol.Env) (bool, error) {
	key := testKey{f: f, j: j, env: envKey(env)}
	if v, ok := c.testMemo[key]; ok {
		return v, nil
	}
	ev := fol.NewEvaluator(c.hist.State(j), &oracle{c: c, i: j})
	v, err := ev.Test(f, env)
	if err != nil {
		return false, err
	}
	c.testMemo[key] = v
	return v, nil
}

func envKey(env fol.Env) string {
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		vk := env[n].Key()
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(len(vk)))
		b.WriteByte(':')
		b.WriteString(vk)
		b.WriteByte(';')
	}
	return b.String()
}

// oracle answers temporal nodes at history index i by direct recursion
// over earlier states — the textbook semantics.
type oracle struct {
	c *Checker
	i int
}

func (o *oracle) Enumerate(f mtl.Formula) (*fol.Bindings, error) {
	switch n := f.(type) {
	case *mtl.Prev:
		return o.enumPrev(n)
	case *mtl.Once:
		return o.enumOnce(n)
	case *mtl.Since:
		return o.enumSince(n)
	default:
		return nil, fmt.Errorf("naive: cannot enumerate %T", f)
	}
}

func (o *oracle) enumPrev(n *mtl.Prev) (*fol.Bindings, error) {
	if o.i == 0 {
		return fol.NewBindings(mtl.FreeVars(n.F)), nil
	}
	gap := o.c.hist.Time(o.i) - o.c.hist.Time(o.i-1)
	if !n.I.Contains(gap) {
		return fol.NewBindings(mtl.FreeVars(n.F)), nil
	}
	return o.c.evalAt(n.F, o.i-1)
}

func (o *oracle) enumOnce(n *mtl.Once) (*fol.Bindings, error) {
	now := o.c.hist.Time(o.i)
	out := fol.NewBindings(mtl.FreeVars(n.F))
	for j := o.i; j >= 0; j-- {
		d := now - o.c.hist.Time(j)
		if d > n.I.Upper() {
			break // distances only grow as j decreases
		}
		if !n.I.Contains(d) {
			continue
		}
		b, err := o.c.evalAt(n.F, j)
		if err != nil {
			return nil, err
		}
		var uerr error
		out, uerr = fol.Union(out, b)
		if uerr != nil {
			return nil, uerr
		}
	}
	return out, nil
}

func (o *oracle) enumSince(n *mtl.Since) (*fol.Bindings, error) {
	now := o.c.hist.Time(o.i)
	lvars := mtl.FreeVars(n.L)
	vars := mtl.FreeVars(n)
	out := fol.NewBindings(vars)
	for j := o.i; j >= 0; j-- {
		d := now - o.c.hist.Time(j)
		if d > n.I.Upper() {
			break
		}
		if !n.I.Contains(d) {
			continue
		}
		cand, err := o.c.evalAt(n.R, j)
		if err != nil {
			return nil, err
		}
		var addErr error
		cand.Each(func(env fol.Env) bool {
			ok, err := out.Contains(env)
			if err != nil {
				addErr = err
				return false
			}
			if ok {
				return true // already a witness via a later j
			}
			hold, err := o.lHoldsBetween(n.L, lvars, env, j)
			if err != nil {
				addErr = err
				return false
			}
			if hold {
				if err := out.Add(env); err != nil {
					addErr = err
					return false
				}
			}
			return true
		})
		if addErr != nil {
			return nil, addErr
		}
	}
	return out, nil
}

// lHoldsBetween reports whether L holds under env at every state k with
// j < k ≤ i.
func (o *oracle) lHoldsBetween(l mtl.Formula, lvars []string, env fol.Env, j int) (bool, error) {
	sub := restrict(env, lvars)
	for k := j + 1; k <= o.i; k++ {
		ok, err := o.c.testAt(l, k, sub)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func (o *oracle) Test(f mtl.Formula, env fol.Env) (bool, error) {
	now := o.c.hist.Time(o.i)
	switch n := f.(type) {
	case *mtl.Prev:
		if o.i == 0 {
			return false, nil
		}
		gap := now - o.c.hist.Time(o.i-1)
		if !n.I.Contains(gap) {
			return false, nil
		}
		return o.c.testAt(n.F, o.i-1, restrict(env, mtl.FreeVars(n.F)))
	case *mtl.Once:
		sub := restrict(env, mtl.FreeVars(n.F))
		for j := o.i; j >= 0; j-- {
			d := now - o.c.hist.Time(j)
			if d > n.I.Upper() {
				break
			}
			if !n.I.Contains(d) {
				continue
			}
			ok, err := o.c.testAt(n.F, j, sub)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *mtl.Always:
		sub := restrict(env, mtl.FreeVars(n.F))
		for j := o.i; j >= 0; j-- {
			d := now - o.c.hist.Time(j)
			if d > n.I.Upper() {
				break
			}
			if !n.I.Contains(d) {
				continue
			}
			ok, err := o.c.testAt(n.F, j, sub)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	case *mtl.Since:
		subR := restrict(env, mtl.FreeVars(n.R))
		lvars := mtl.FreeVars(n.L)
		for j := o.i; j >= 0; j-- {
			d := now - o.c.hist.Time(j)
			if d > n.I.Upper() {
				break
			}
			if !n.I.Contains(d) {
				continue
			}
			ok, err := o.c.testAt(n.R, j, subR)
			if err != nil {
				return false, err
			}
			if !ok {
				continue
			}
			hold, err := o.lHoldsBetween(n.L, lvars, env, j)
			if err != nil {
				return false, err
			}
			if hold {
				return true, nil
			}
		}
		return false, nil
	case *mtl.LeadsTo:
		// The obligation holds iff its past-form violation monitor
		// (see mtl.Normalize) does not.
		viol := o.c.leadsToMonitor(n)
		bad, err := o.c.testAt(viol, o.i, env)
		return !bad, err
	default:
		return false, fmt.Errorf("naive: cannot test %T as temporal node", f)
	}
}

func restrict(env fol.Env, vars []string) fol.Env {
	out := make(fol.Env, len(vars))
	for _, v := range vars {
		if val, ok := env[v]; ok {
			out[v] = val
		}
	}
	return out
}
