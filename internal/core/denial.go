package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/tuple"
)

// A denial family is the unit of the check phase: constraints whose
// denials are R ∧ V_j — one R, the same conjuncts in the same order, and
// V_j a literal of one polarity on member j of one once/since family.
// Member j's window admits a row iff V_j holds for it; a family's windows
// are nested (members[sat:] hold a row), so the windows that admit a row
// are the narrowest ones for a negated literal and the widest ones for a
// positive literal. The loose member — whose window admits what any other
// does — therefore answers U, the union of every member's answer, and
// member j's answer is {w ∈ U : j's window admits w's varying row}. One
// seeded derivation per changed row and one retest per standing row of U
// serve every member, and the entry of the varying row fans each witness
// out (DESIGN.md, "Denial families").
//
// A denial no other can join is a family of one on the same code path.
type denialFamily struct {
	// cons are the members' constraint indices, their windows narrowest
	// first (installation order among equal windows). fam is the windows'
	// family, nil for a family of one that no other denial may join.
	cons     []int
	fam      *sinceFamily
	positive bool
	// tPos are the columns of an answer row that make up the varying
	// literal's row.
	tPos []int

	// Scratch of the family's check.
	keyBuf, placeBuf []byte
	drop             []tuple.Tuple
	work             []*fol.Bindings

	// start and dur time the family's last timed run.
	start time.Time
	dur   time.Duration

	// execs counts the plan executions the family ran — full runs,
	// retested rows, seeded derivations; tests and benchmarks read it,
	// nothing else does.
	execs int
}

// joinFamily files constraint i in the denial family of the first of its
// conjuncts that names a window another installed denial varies in, or
// else in a new family — under the key of its first conjunct that names
// a window at all, if any.
func (c *Checker) joinFamily(i int) {
	conj := mtl.Conjuncts(c.constraints[i].Denial)
	var newKey string
	var newVary *sinceNode
	var newPositive bool
	for at, cj := range conj {
		vary, positive := c.sharedWindow(cj)
		if vary == nil {
			continue
		}
		key := denialKey(conj, at, vary, positive)
		if df := c.denialKeys[key]; df != nil && df.fam == vary.fam {
			df.add(c, i, vary)
			return
		}
		if newVary == nil {
			newKey, newVary, newPositive = key, vary, positive
		}
	}
	df := &denialFamily{positive: newPositive}
	if newVary != nil {
		df.fam = newVary.fam
		df.tPos = varPositions(c.conStates[i].plan.Vars(), newVary.fam.vars)
		c.denialKeys[newKey] = df
	}
	c.denials = append(c.denials, df)
	df.add(c, i, newVary)
}

// sharedWindow returns the window of conjunct cj if it is a once/since
// literal whose table other windows may share (sinceFamily.shareKey: the
// same operands, the newest-anchor rule in force, the table not yet
// primed), with the literal's polarity.
func (c *Checker) sharedWindow(cj mtl.Formula) (*sinceNode, bool) {
	lit, positive := cj, true
	if n, ok := cj.(*mtl.Not); ok {
		lit, positive = n.F, false
	}
	s, ok := c.byNode[lit].(*sinceNode)
	if !ok || s.fam.primed || s.fam.shareKey() == "" {
		return nil, false
	}
	return s, positive
}

// denialKey renders conjuncts conj with the one at position at, a
// literal of the given polarity on vary, replaced by its family's key:
// two denials with the same key differ at most in that literal's window.
func denialKey(conj []mtl.Formula, at int, vary *sinceNode, positive bool) string {
	parts := make([]string, len(conj))
	for k, cj := range conj {
		parts[k] = cj.String()
	}
	parts[at] = "\x01+" + vary.fam.shareKey()
	if !positive {
		parts[at] = "\x01-" + vary.fam.shareKey()
	}
	return strings.Join(parts, "\x00")
}

// add files constraint i, whose varying literal is on vary (nil in a
// family of one), at its window's place.
func (df *denialFamily) add(c *Checker, i int, vary *sinceNode) {
	cs := c.conStates[i]
	cs.family, cs.vary = df, vary
	at := len(df.cons)
	if vary != nil {
		at = sort.Search(len(df.cons), func(k int) bool { return vary.narrowerThan(c.conStates[df.cons[k]].vary) })
	}
	df.cons = slices.Insert(df.cons, at, i)
	df.work = append(df.work, nil)
}

// looseAt is the position of the member whose window admits every row
// another member's does: the narrowest for a negated literal, the widest
// for a positive one.
func (df *denialFamily) looseAt() int {
	if df.positive {
		return len(df.cons) - 1
	}
	return 0
}

// place returns where the varying literal's row of answer row w stands
// in its once/since family: members[place:] hold it.
func (df *denialFamily) place(w tuple.Tuple) int {
	k := df.placeBuf[:0]
	for _, p := range df.tPos {
		k = tuple.AppendValueKey(k, w[p])
	}
	df.placeBuf = k
	return df.fam.place(k)
}

// admits reports whether window v's literal holds for a row at place.
func (df *denialFamily) admits(v *sinceNode, place int) bool {
	return (v.idx >= place) == df.positive
}

// moved returns the rows that v's literal started to hold for this
// commit (arrivals) or, with arrivals false, stopped holding for.
func (df *denialFamily) moved(v *sinceNode, arrivals bool) []tuple.Tuple {
	added, removed, _ := v.answerDelta()
	if df.positive == arrivals {
		return added
	}
	return removed
}

// checkFamily checks every member of df. Each member's action is the one
// decide picks from its own read set; the work runs once, for the loose
// member's denial, and every other member that is not skipped is
// answered from it. The answers are built in df.work, parallel to cons,
// and published at the end.
func (c *Checker) checkFamily(sc *stepCtx, df *denialFamily) error {
	act := ActionSkipped
	for _, i := range df.cons {
		c.decide(i)
		if a := c.lastSkips[i].Action; a == ActionPlanned || act == ActionSkipped {
			act = a
		}
	}
	if act == ActionSkipped {
		return nil
	}
	for k, i := range df.cons {
		df.work[k] = c.conStates[i].lastB
	}
	var err error
	if act == ActionSeeded {
		err = c.seedFamily(sc, df)
	} else {
		err = c.planFamily(sc, df)
	}
	lk := df.looseAt()
	if err != nil {
		return fmt.Errorf("core: constraint %s at state %d: %w", c.constraints[df.cons[lk]].Name, c.index, err)
	}
	for k, i := range df.cons {
		if c.running(i) {
			c.conStates[i].lastB = df.work[k]
			if k != lk {
				c.lastSkips[i].Reason = "answered by family"
			}
		}
		df.work[k] = nil
	}
	return nil
}

// planFamily runs the loose member's plan in full and answers every
// other running member with the rows its window admits.
func (c *Checker) planFamily(sc *stepCtx, df *denialFamily) error {
	lk := df.looseAt()
	u, err := c.conStates[df.cons[lk]].plan.Eval(c.cur, &sc.orc, nil)
	if err != nil {
		return err
	}
	df.execs++
	df.work[lk] = u
	for k, i := range df.cons {
		if k != lk && c.running(i) {
			df.work[k] = fol.NewBindings(u.Vars())
		}
	}
	if len(df.cons) > 1 {
		u.EachRow(func(w tuple.Tuple) bool {
			df.keyBuf = w.AppendKeyTo(df.keyBuf[:0])
			err = c.fanOut(df, w, df.keyBuf)
			return err == nil
		})
	}
	return err
}

// seedFamily re-derives the loose member's answer U semi-naively from
// the commit's delta, and every other running member's from U: member j
// loses w when U does or when j's literal stopped holding for w's
// varying row, and gains w when U does and j's window admits its row, or
// when its literal started to hold for the varying row of a w that U
// kept. Answers that did not move are kept as they are; a new set is
// built only once one does.
func (c *Checker) seedFamily(sc *stepCtx, df *denialFamily) error {
	lk := df.looseAt()
	lc := c.conStates[df.cons[lk]]
	last := lc.lastB
	var rerr error
	lc.lost = lc.lost[:0]
	if !last.Empty() && lc.moved(false) {
		last.EachRow(func(row tuple.Tuple) bool {
			df.execs++
			ok, err := lc.plan.RetestRow(c.cur, &sc.orc, row)
			if err != nil {
				rerr = err
				return false
			}
			if !ok {
				lc.lost = append(lc.lost, row)
			}
			return true
		})
		if rerr != nil {
			return rerr
		}
	}
	u := last
	if len(lc.lost) > 0 {
		u = last.Clone()
		for _, row := range lc.lost {
			u.RemoveKey(row.Key())
		}
	}
	rise := false
	for k, i := range df.cons {
		if k == lk || !c.running(i) {
			continue
		}
		cs := c.conStates[i]
		rise = rise || len(df.moved(cs.vary, true)) > 0
		if len(lc.lost) == 0 && len(df.moved(cs.vary, false)) == 0 {
			continue
		}
		df.drop = df.drop[:0]
		cs.lastB.EachRow(func(w tuple.Tuple) bool {
			df.keyBuf = w.AppendKeyTo(df.keyBuf[:0])
			if !u.ContainsKeyBytes(df.keyBuf) || !df.admits(cs.vary, df.place(w)) {
				df.drop = append(df.drop, w)
			}
			return true
		})
		if len(df.drop) > 0 {
			df.work[k] = cs.lastB.Clone()
			for _, w := range df.drop {
				df.work[k].RemoveKey(w.Key())
			}
		}
	}
	if rise {
		u.EachRow(func(w tuple.Tuple) bool {
			df.keyBuf = w.AppendKeyTo(df.keyBuf[:0])
			rerr = c.fanOut(df, w, df.keyBuf)
			return rerr == nil
		})
		if rerr != nil {
			return rerr
		}
	}
	if lc.moved(true) {
		n, err := lc.derive(sc, func(row tuple.Tuple) bool {
			df.keyBuf = row.AppendKeyTo(df.keyBuf[:0])
			if !u.ContainsKeyBytes(df.keyBuf) {
				if u == last {
					u = last.Clone()
				}
				if rerr = u.AddRow(row); rerr != nil {
					return false
				}
			}
			rerr = c.fanOut(df, row, df.keyBuf)
			return rerr == nil
		})
		df.execs += n
		if err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
	}
	df.work[lk] = u
	return nil
}

// fanOut adds row w of U, whose key is key, to the answer of every other
// running member whose window admits it and that does not hold it yet.
func (c *Checker) fanOut(df *denialFamily, w tuple.Tuple, key []byte) error {
	place := -1
	for k, i := range df.cons {
		if k == df.looseAt() || !c.running(i) {
			continue
		}
		cs := c.conStates[i]
		if place < 0 {
			place = df.place(w)
		}
		if !df.admits(cs.vary, place) || df.work[k].ContainsKeyBytes(key) {
			continue
		}
		if df.work[k] == cs.lastB {
			df.work[k] = cs.lastB.Clone()
		}
		if err := df.work[k].AddRow(w); err != nil {
			return err
		}
	}
	return nil
}

// Families reports the check phase's denial families, each as the names
// of its constraints, the narrowest window first — for tests and
// diagnostics.
func (c *Checker) Families() [][]string {
	out := make([][]string, len(c.denials))
	for k, df := range c.denials {
		for _, i := range df.cons {
			out[k] = append(out[k], c.constraints[i].Name)
		}
	}
	return out
}
