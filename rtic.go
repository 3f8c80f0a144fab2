// Package rtic implements real-time integrity constraints for evolving
// databases, reproducing Jan Chomicki's PODS 1992 paper "Real-Time
// Integrity Constraints".
//
// Constraints are formulas of Past Metric Temporal Logic over a
// timestamped history of database states:
//
//	hire(e) -> not once[0,365] fire(e)      -- no rehire within a year
//	paid(tk) -> once[0,3] reserved(tk)      -- pay within 3 days of reserving
//	clear(a) -> (ack(a) since raisd(a))     -- acknowledged since raised
//
// A Checker ingests one transaction per commit and reports the witnesses
// violating any installed constraint in the resulting state. It runs the
// paper's contribution — incremental checking with bounded history
// encoding: it stores no history, only small auxiliary relations whose
// size is bounded by the constraints' metric windows, and its
// per-transaction cost is independent of history length.
//
// Quick start:
//
//	s, _ := rtic.NewSchema().Relation("hire", 1).Relation("fire", 1).Build()
//	c, _ := rtic.NewChecker(s)
//	_ = c.AddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
//	violations, _ := c.Begin().Insert("fire", rtic.Int(7)).Commit(0)
//	violations, _ = c.Begin().
//	    Delete("fire", rtic.Int(7)).
//	    Insert("hire", rtic.Int(7)).
//	    Commit(100) // reports e=7
package rtic

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/engine"
	"rtic/internal/fol"
	"rtic/internal/lint"
	"rtic/internal/mtl"
	"rtic/internal/obs"
	"rtic/internal/plan"
	"rtic/internal/schema"
	"rtic/internal/shard"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// Value is a database constant: an integer or a string.
type Value = value.Value

// Int returns an integer value.
func Int(i int64) Value { return value.Int(i) }

// Str returns a string value.
func Str(s string) Value { return value.Str(s) }

// Tuple is a row of values.
type Tuple = tuple.Tuple

// Violation reports one witness of a constraint failure: the constraint
// name, the state (index and timestamp) and the binding of the
// constraint's free variables. The binding may share storage with the
// checker: read it, do not modify it.
type Violation = check.Violation

// Schema describes the database relations a checker ranges over.
type Schema = schema.Schema

// SchemaBuilder accumulates relation definitions.
type SchemaBuilder struct{ b *schema.Builder }

// NewSchema starts a schema definition.
func NewSchema() *SchemaBuilder {
	return &SchemaBuilder{b: schema.NewBuilder()}
}

// Relation adds a relation of the given arity.
func (sb *SchemaBuilder) Relation(name string, arity int) *SchemaBuilder {
	sb.b.Relation(name, arity)
	return sb
}

// Build returns the schema or the first definition error.
func (sb *SchemaBuilder) Build() (*Schema, error) { return sb.b.Build() }

// MustBuild builds or panics.
func (sb *SchemaBuilder) MustBuild() *Schema { return sb.b.MustBuild() }

// Option configures a Checker.
type Option func(*config)

type config struct {
	obs  *obs.Observer
	lint LintMode
}

// Diagnostic is one static-analysis finding of the constraint linter;
// see the rtic lint command and docs/LINTING.md for the rule catalogue.
type Diagnostic = lint.Diagnostic

// Severity grades a lint finding.
type Severity = lint.Severity

const (
	// LintInfo findings are advisory.
	LintInfo = lint.Info
	// LintWarning findings flag legal but suspicious constraints.
	LintWarning = lint.Warning
	// LintError findings are constraints that cannot work as written.
	LintError = lint.Error
)

// LintMode selects how AddConstraint treats linter findings.
type LintMode int

const (
	// LintWarn (the default) runs the linter and records findings —
	// retrieve them with LintDiagnostics — but installs the constraint
	// regardless. Checking results are unaffected.
	LintWarn LintMode = iota
	// LintStrict rejects constraints with Warning-or-worse findings.
	LintStrict
	// LintOff skips the linter entirely.
	LintOff
)

// WithLint selects the lint mode for AddConstraint (default LintWarn).
func WithLint(m LintMode) Option {
	return func(c *config) { c.lint = m }
}

// Observer bundles the instrumentation sinks a checker can carry: a
// metric set (counters, gauges, latency histograms behind a
// Prometheus-format registry) and a span sink receiving one tree of
// timed spans per commit. See NewRegistry, NewMetrics, NewSlogSink and
// NewSpanRecorder.
type Observer = obs.Observer

// Metrics is the standard engine/monitor metric set; see NewMetrics.
type Metrics = obs.Metrics

// Registry holds metrics and writes the Prometheus text exposition.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry; expose it with its
// WritePrometheus method.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewMetrics registers the standard metric set on r.
func NewMetrics(r *Registry) *Metrics { return obs.NewMetrics(r) }

// Span is one timed section of the commit path. Spans form a tree
// rooted at a commit: per-phase children (apply, update, check,
// carry), WAL append/fsync spans.
// Constraint parsing and snapshot save/restore are root spans of their
// own.
type Span = obs.Span

// SpanSink receives completed span trees; set it on Observer.Spans. A
// sink that also has a method WantsDetail() bool returning true gets
// one node.update child per auxiliary node and one constraint.check
// child per constraint in every commit tree. See NewSlogSink,
// NewSpanRecorder and WriteChromeTrace.
type SpanSink = obs.SpanSink

// NewSlogSink returns a SpanSink logging one structured line per span
// through l (nil means slog.Default()): ERROR for spans carrying an
// error, DEBUG for the per-node and per-constraint detail spans — built
// only while l's handler accepts DEBUG — and INFO for the rest.
func NewSlogSink(l *slog.Logger) SpanSink { return obs.NewSlogSink(l) }

// SpanRecorder is a SpanSink keeping the last N commit span trees in a
// ring buffer.
type SpanRecorder = obs.SpanRecorder

// NewSpanRecorder returns a recorder keeping the last capacity commit
// span trees (capacity <= 0 selects 4096).
func NewSpanRecorder(capacity int) *SpanRecorder { return obs.NewSpanRecorder(capacity) }

// WriteChromeTrace writes recorded span trees as Chrome trace_event
// JSON — the format chrome://tracing and ui.perfetto.dev open
// directly.
func WriteChromeTrace(w io.Writer, roots []*Span) error { return obs.WriteChromeTrace(w, roots) }

// WithObserver attaches instrumentation to the checker: metric updates
// and span trees from the engine's hot paths. A nil observer (or one
// with nil sinks) costs nothing beyond pointer checks per commit.
func WithObserver(o *Observer) Option {
	return func(c *config) { c.obs = o }
}

// Checker validates a stream of transactions against installed
// constraints. Checkers are not safe for concurrent use.
type Checker struct {
	schema   *Schema
	eng      shard.Checker
	obs      *obs.Observer
	lintMode LintMode
	diags    []lint.Diagnostic
}

// NewChecker creates a checker over s.
func NewChecker(s *Schema, opts ...Option) (*Checker, error) {
	if s == nil {
		return nil, fmt.Errorf("rtic: nil schema")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := shard.Build(s, 1)
	if err != nil {
		return nil, fmt.Errorf("rtic: %w", err)
	}
	if cfg.obs != nil {
		eng.SetObserver(cfg.obs)
	}
	return &Checker{schema: s, eng: eng, obs: cfg.obs, lintMode: cfg.lint}, nil
}

// Constraints returns the names of installed constraints, in
// installation order.
func (c *Checker) Constraints() []string {
	return c.eng.ConstraintNames()
}

// AddConstraint parses, validates and installs a constraint. Constraints
// must be installed before the first commit (the auxiliary encoding
// summarizes the history from its start). The constraint formula is
// implicitly universally quantified; its denial must be range-restricted
// so violation witnesses are enumerable — AddConstraint reports a
// detailed error otherwise.
func (c *Checker) AddConstraint(name, src string) error {
	if c.eng.Len() > 0 {
		return fmt.Errorf("rtic: constraint %q added after the first commit", name)
	}
	sink := c.obs.SpanSink()
	var p0 time.Time
	if sink != nil {
		p0 = time.Now()
	}
	con, err := check.Parse(name, src, c.schema)
	if sink != nil {
		sink.ObserveSpan(&Span{Name: obs.SpanParse, Detail: name, Start: p0, Dur: time.Since(p0), Err: err})
	}
	if err != nil {
		return err
	}
	if c.lintMode != LintOff {
		diags := lint.Constraint(name, con.Formula, c.schema, lint.Options{})
		c.diags = append(c.diags, diags...)
		if c.lintMode == LintStrict {
			if max := lint.MaxSeverity(diags); max >= lint.Warning {
				worst := diags[0]
				for _, d := range diags {
					if d.Severity == max {
						worst = d
						break
					}
				}
				return fmt.Errorf("rtic: constraint %q rejected by strict lint (%d finding(s)): %s",
					name, len(diags), worst.String())
			}
		}
	}
	return c.eng.AddConstraint(con)
}

// LintDiagnostics returns the linter findings accumulated by
// AddConstraint, in installation order. Empty under WithLint(LintOff).
// Findings never change checking results except under LintStrict,
// where a Warning-or-worse finding makes AddConstraint fail.
func (c *Checker) LintDiagnostics() []Diagnostic {
	return append([]Diagnostic(nil), c.diags...)
}

// MustAddConstraint installs or panics; for literal constraint sets.
func (c *Checker) MustAddConstraint(name, src string) {
	if err := c.AddConstraint(name, src); err != nil {
		panic(err)
	}
}

// ValidateFormula parses and validates a constraint against the schema
// without installing it, returning its free variables.
func (c *Checker) ValidateFormula(src string) ([]string, error) {
	con, err := check.Parse("probe", src, c.schema)
	if err != nil {
		return nil, err
	}
	return con.Vars, nil
}

// Begin starts a transaction against the checker.
func (c *Checker) Begin() *Tx {
	return &Tx{c: c, tx: storage.NewTransaction()}
}

// Stats describes the checker's auxiliary storage.
type Stats struct {
	// Nodes is the number of temporal subformulas tracked.
	Nodes int
	// Entries is the number of bindings currently tracked, Timestamps
	// the timestamps stored across them, Bytes an estimated footprint.
	Entries    int
	Timestamps int
	Bytes      int
}

// Stats reports the checker's auxiliary storage.
func (c *Checker) Stats() Stats {
	s := c.eng.Stats()
	return Stats{Nodes: s.Nodes, Entries: s.Entries, Timestamps: s.Timestamps, Bytes: s.Bytes}
}

// Explanation is the evidence trail of a violation: for every temporal
// subformula the violating binding reaches, whether it held and which
// in-window anchor timestamps witnessed it.
type Explanation = core.Explanation

// Explain answers "why was this violation flagged?" from the auxiliary
// encoding, for violations of the most recent commit only (the encoding
// answers for the current state only).
func (c *Checker) Explain(v Violation) (*Explanation, error) {
	return c.eng.Explain(v)
}

// SkipInfo records which checking strategy the checker chose
// for one constraint at the latest commit — skipped (previous answer
// reused), seeded (re-derived from the delta) or planned (compiled plan
// ran in full) — and why.
type SkipInfo = core.SkipInfo

// SkipAction is the strategy named in a SkipInfo.
type SkipAction = core.SkipAction

// The checking strategies LastSkips can report.
const (
	ActionSkipped = core.ActionSkipped
	ActionSeeded  = core.ActionSeeded
	ActionPlanned = core.ActionPlanned
)

// LastSkips reports the per-constraint strategy record of the latest
// commit, in constraint-installation order: the commit-level
// counterpart of Explain.
func (c *Checker) LastSkips() []SkipInfo {
	if inc, ok := c.eng.(*core.Checker); ok {
		return inc.LastSkips()
	}
	return nil
}

// Tx is a transaction under construction: an ordered list of tuple
// insertions and deletions committed atomically at one timestamp.
type Tx struct {
	c  *Checker
	tx *storage.Transaction
}

// Insert schedules the insertion of a tuple into rel.
func (t *Tx) Insert(rel string, vals ...Value) *Tx {
	t.tx.Insert(rel, tuple.Of(vals...))
	return t
}

// Delete schedules the deletion of a tuple from rel.
func (t *Tx) Delete(rel string, vals ...Value) *Tx {
	t.tx.Delete(rel, tuple.Of(vals...))
	return t
}

// Commit applies the transaction at the given timestamp (timestamps must
// be strictly increasing across commits) and returns the violation
// witnesses of the resulting state. A violation does not roll the
// transaction back; reacting to violations is the caller's policy, as in
// the paper's detection-oriented model. The violations are the
// caller's to keep.
func (t *Tx) Commit(time uint64) ([]Violation, error) {
	vs, err := t.c.eng.Step(time, t.tx)
	return check.CloneViolations(vs), err
}

// Batch accumulates transactions for one multi-commit call: each added
// transaction commits atomically at its own timestamp, in order, and
// the call stops at the first that fails — the bulk path for replaying
// a backlog.
type Batch struct {
	c     *Checker
	steps []engine.Step
	err   error
}

// BeginBatch starts a batch commit against the checker.
func (c *Checker) BeginBatch() *Batch { return &Batch{c: c} }

// Add appends a transaction built with Begin to the batch, to commit at
// the given timestamp. Timestamps must be strictly increasing within
// the batch and after the checker's last commit.
func (b *Batch) Add(time uint64, t *Tx) *Batch {
	if b.err != nil {
		return b
	}
	if t == nil || t.c != b.c {
		b.err = fmt.Errorf("rtic: batch Add of a transaction from a different checker")
		return b
	}
	b.steps = append(b.steps, engine.Step{Time: time, Tx: t.tx})
	return b
}

// Commit commits the batched transactions in order and returns one
// violation slice per transaction. On error the committed prefix stays
// committed (the detection-oriented model never rolls back) and the
// prefix's violations are returned alongside the error.
func (b *Batch) Commit() ([][]Violation, error) {
	if b.err != nil {
		return nil, b.err
	}
	return engine.SerialBatch(b.c.eng.Step, b.steps)
}

// SaveSnapshot checkpoints the checker's complete state — the current
// database, clock and (small) auxiliary encoding — so a monitor can
// restart without replaying its history.
func (c *Checker) SaveSnapshot(w io.Writer) error {
	return c.eng.SaveSnapshot(w)
}

// RestoreChecker rebuilds a checker from a snapshot written by
// SaveSnapshot; the snapshot carries its constraints. WithObserver
// attaches instrumentation. The restore itself is one snapshot.restore
// span when a span sink is attached.
func RestoreChecker(s *Schema, r io.Reader, opts ...Option) (*Checker, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	p, err := shard.Restore(s, r, 1, cfg.obs)
	if err != nil {
		return nil, err
	}
	return &Checker{schema: s, eng: p, obs: cfg.obs, lintMode: cfg.lint}, nil
}

// QueryResult holds the satisfying bindings of an ad-hoc query: Rows[i]
// assigns values to Vars positionally.
type QueryResult struct {
	Vars []string
	Rows []Tuple
}

// Query evaluates a first-order (non-temporal) formula against the
// current database state and returns its satisfying bindings, sorted.
// The formula must be range-restricted, like a constraint denial:
//
//	res, err := c.Query("hire(e) and not fire(e)")
func (c *Checker) Query(src string) (*QueryResult, error) {
	f, err := mtl.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := fol.CheckSchema(f, c.schema); err != nil {
		return nil, err
	}
	kernel := mtl.Simplify(mtl.Normalize(f))
	temporal := false
	mtl.Walk(kernel, func(g mtl.Formula) {
		switch g.(type) {
		case *mtl.Prev, *mtl.Once, *mtl.Since:
			temporal = true
		}
	})
	if temporal {
		return nil, fmt.Errorf("rtic: queries are first-order; temporal operators belong in constraints")
	}
	if err := mtl.CheckSafe(kernel); err != nil {
		return nil, err
	}
	st, err := c.eng.State()
	if err != nil {
		return nil, err
	}
	// Planned over a scratch state, the query registers no maintained
	// index on the live relations; where it would probe one it scans.
	p, err := plan.Compile(kernel, storage.NewState(c.schema), nil)
	if err != nil {
		return nil, err
	}
	b, err := p.Eval(st, nil, nil)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Vars: b.Vars(), Rows: b.Rows()}, nil
}

// ParseFormula parses a Past MTL formula and returns its canonical
// rendering; a convenience for tooling.
func ParseFormula(src string) (string, error) {
	f, err := mtl.Parse(src)
	if err != nil {
		return "", err
	}
	return f.String(), nil
}
