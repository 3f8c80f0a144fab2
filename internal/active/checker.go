package active

import (
	"fmt"
	"strings"

	"rtic/internal/check"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
)

// Checker runs integrity constraints through the active-DBMS route: it
// compiles each constraint to a rule program (see translate.go), hosts
// the programs on one Engine, and reads violation witnesses back from
// the per-constraint violation relations after every commit.
type Checker struct {
	base        *schema.Schema
	constraints []*check.Constraint
	programs    []*compiled
	cp          compiler

	engine *Engine
	index  int

	obs *obs.Observer
}

// New returns an empty active-route checker over the base schema.
func New(base *schema.Schema) *Checker {
	for _, name := range base.Names() {
		if strings.HasPrefix(name, ReservedPrefix) {
			panic(fmt.Sprintf("active: base schema uses reserved relation name %q", name))
		}
	}
	return &Checker{base: base}
}

// AddConstraint compiles a constraint into rules. Constraints must be
// installed before the first Step.
func (c *Checker) AddConstraint(con *check.Constraint) error {
	if c.engine != nil {
		return fmt.Errorf("active: constraint %q added after the history started", con.Name)
	}
	for _, existing := range c.constraints {
		if existing.Name == con.Name {
			return fmt.Errorf("active: duplicate constraint %q", con.Name)
		}
	}
	prog, err := c.cp.compileConstraint(con)
	if err != nil {
		return err
	}
	c.constraints = append(c.constraints, con)
	c.programs = append(c.programs, prog)
	return nil
}

// build assembles the full schema (base + engine-managed relations) and
// the engine with every compiled rule installed.
func (c *Checker) build() error {
	b := schema.NewBuilder()
	for _, name := range c.base.Names() {
		def, _ := c.base.Lookup(name)
		b.Relation(def.Name, def.Arity)
	}
	for _, prog := range c.programs {
		b.Relation(prog.violRel, len(prog.con.Vars))
		for _, n := range prog.nodes {
			switch n.kind {
			case kindSince:
				b.Relation(n.auxRel(), len(n.vars)+1)
			case kindPrev:
				b.Relation(n.prevRel(), len(n.fvars))
				b.Relation(n.newRel(), len(n.fvars))
			}
		}
	}
	full, err := b.Build()
	if err != nil {
		return err
	}
	c.engine = NewEngine(full)
	for _, prog := range c.programs {
		for _, r := range prog.rules {
			if err := c.engine.AddRule(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetObserver attaches (or detaches, with nil) the instrumentation
// sinks, keeping the active route comparable with the incremental
// engine: same commit/constraint metrics; the aux-entries gauge
// reports the tuples held in engine-managed relations.
func (c *Checker) SetObserver(o *obs.Observer) {
	c.obs = o
	if m := o.MetricSink(); m != nil {
		// Rule programs run sequentially; publish the pool width so
		// dashboards read a truthful 1 rather than a stale value.
		m.ParallelWorkers.Set(1)
	}
}

// Step commits a transaction at time t, runs the rule programs, and
// returns the violation witnesses the rules derived.
func (c *Checker) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	cs := c.obs.BeginCommit(t, tx.Len())
	if cs.Idle() {
		return c.step(t, tx, nil)
	}
	vs, err := c.step(t, tx, cs.Metrics)
	if cs.End(err) {
		if aux, auxErr := c.AuxTuples(); auxErr == nil {
			cs.Metrics.AuxEntries.Set(int64(aux))
		}
	}
	return vs, err
}

func (c *Checker) step(t uint64, tx *storage.Transaction, m *obs.Metrics) ([]check.Violation, error) {
	st, err := c.State()
	if err != nil {
		return nil, err
	}
	if err := c.engine.Commit(t, tx); err != nil {
		return nil, err
	}
	var out []check.Violation
	for _, prog := range c.programs {
		rel, err := st.Relation(prog.violRel)
		if err != nil {
			return nil, err
		}
		rows := rel.Tuples()
		if m != nil {
			m.Violations.With(prog.con.Name).Add(uint64(len(rows)))
		}
		for _, row := range rows {
			out = append(out, check.Violation{
				Constraint: prog.con.Name,
				Index:      c.index,
				Time:       t,
				Vars:       prog.con.Vars,
				Binding:    row.Clone(),
			})
		}
	}
	c.index++
	return out, nil
}

// Len reports the number of committed states.
func (c *Checker) Len() int { return c.index }

// State returns the current database state (base and engine-managed
// relations), building the engine on demand. Callers must not mutate it.
func (c *Checker) State() (*storage.State, error) {
	if c.engine == nil {
		if err := c.build(); err != nil {
			return nil, err
		}
	}
	return c.engine.State(), nil
}

// RuleCount reports the number of generated rules across constraints.
func (c *Checker) RuleCount() int {
	n := 0
	for _, prog := range c.programs {
		n += len(prog.rules)
	}
	return n
}

// AuxTuples counts the tuples currently held in engine-managed
// relations — the active route's space figure.
func (c *Checker) AuxTuples() (int, error) {
	if c.engine == nil {
		return 0, nil
	}
	total := 0
	for _, prog := range c.programs {
		for _, n := range prog.nodes {
			var rels []string
			switch n.kind {
			case kindSince:
				rels = []string{n.auxRel()}
			case kindPrev:
				rels = []string{n.prevRel(), n.newRel()}
			}
			for _, name := range rels {
				r, err := c.engine.State().Relation(name)
				if err != nil {
					return 0, err
				}
				total += r.Len()
			}
		}
	}
	return total, nil
}
