package formgen

import (
	"fmt"
	"regexp"
	"slices"
	"strings"

	"rtic/internal/check"
	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

// The exhaustive enumerator is the small-scope counterpart of the random
// generators: every denial kernel up to a size, every set of kernels
// that share one table, and every short history over a two-value
// domain, each once up to renaming. The bound is fixed here and shrinks
// under the race detector; nothing else sets it.
const (
	// KernelSize is k: the most nodes (atoms, not, and, and at most one
	// temporal operator) in a kernel.
	KernelSize = 3
	// SetSize is m: the most kernels in a set that shares one table.
	SetSize = 4
	// HistoryLen is n: the commits of a history. Every shorter history is
	// a prefix of one, and every commit is checked.
	HistoryLen = 3 - raceShorter
)

// Windows are the windows with endpoints in {0, 1, 2, ∞}: the four
// [0,b], narrowest first, which keep one table per operand pair, then
// the five with a > 0, which keep one each.
var Windows = []mtl.Interval{
	mtl.Point(0), {Hi: 1}, {Hi: 2}, mtl.Full(),
	mtl.Point(1), {Lo: 1, Hi: 2}, mtl.AtLeast(1), mtl.Point(2), mtl.AtLeast(2),
}

// SmallSchema is the kernels' vocabulary: two relations of arity one.
func SmallSchema() *schema.Schema {
	return schema.NewBuilder().Relation("p", 1).Relation("q", 1).MustBuild()
}

// Kernel is one enumerated denial kernel: Formula in surface syntax, its
// temporal operator Op ("once", "prev", "since"; "" for none) and that
// operator's Window.
type Kernel struct {
	Formula string
	Op      string
	Window  mtl.Interval
	table   string // Formula without the window: its operator's operands
}

// Source installs k: its violations are k's answers.
func (k Kernel) Source() string { return "not (" + k.Formula + ")" }

// Safe reports whether the engines install k.
func (k Kernel) Safe() bool {
	_, err := check.Parse("k", k.Source(), SmallSchema())
	return err == nil
}

// form is a formula under construction; "\x00" in src is where its
// temporal operator's window goes.
type form struct {
	src  string
	size int
	op   string
}

var atoms = regexp.MustCompile(`[pq]\([xy]\)`)

// canonical renames src's relations to p, q and its variables to x, y
// in the order they are first used, so renamings of one formula agree.
func canonical(src string) string {
	rels, vars := map[byte]byte{}, map[byte]byte{}
	return atoms.ReplaceAllStringFunc(src, func(a string) string {
		if _, ok := rels[a[0]]; !ok {
			rels[a[0]] = "pq"[len(rels)]
		}
		if _, ok := vars[a[2]]; !ok {
			vars[a[2]] = "xy"[len(vars)]
		}
		return string([]byte{rels[a[0]], '(', vars[a[2]], ')'})
	})
}

// formulas returns the formulas of exactly size nodes with at most one
// temporal operator, no double negation, and right-nested conjunctions
// whose conjuncts come smaller first, then in canonical order, so that
// commuting a conjunction makes no second kernel.
func formulas(size int, memo map[int][]form) []form {
	if size == 1 {
		return []form{{"p(x)", 1, ""}, {"p(y)", 1, ""}, {"q(x)", 1, ""}, {"q(y)", 1, ""}}
	}
	if fs, ok := memo[size]; ok {
		return fs
	}
	var out []form
	for _, f := range formulas(size-1, memo) {
		if !strings.HasPrefix(f.src, "not ") {
			out = append(out, form{"not " + f.src, size, f.op})
		}
		if f.op == "" {
			out = append(out, form{"once\x00 " + f.src, size, "once"}, form{"prev\x00 " + f.src, size, "prev"})
		}
	}
	for ls := 1; ls < size-1; ls++ {
		for _, l := range formulas(ls, memo) {
			for _, r := range formulas(size-1-ls, memo) {
				if l.op == "" && r.op == "" {
					out = append(out, form{"(" + l.src + " since\x00 " + r.src + ")", size, "since"})
				}
				ordered := l.size < r.size || l.size == r.size && canonical(l.src) <= canonical(r.src) && l.src != r.src
				if ordered && (l.op == "" || r.op == "") && !strings.Contains(l.src, " and ") {
					out = append(out, form{"(" + l.src + " and " + r.src + ")", size, l.op + r.op})
				}
			}
		}
	}
	memo[size] = out
	return out
}

// Kernels returns every denial kernel of at most KernelSize nodes over
// SmallSchema, safe or not, once per renaming of its relations and
// variables, smallest first: one per window for a temporal one.
func Kernels() []Kernel {
	memo := map[int][]form{}
	seen := map[string]bool{}
	var out []Kernel
	for size := 1; size <= KernelSize; size++ {
		for _, f := range formulas(size, memo) {
			src := canonical(f.src)
			if strings.HasPrefix(src, "(") { // a binary operator, outermost
				src = src[1 : len(src)-1]
			}
			for _, w := range Windows {
				k := Kernel{Formula: strings.Replace(src, "\x00", w.String(), 1), Op: f.op, table: src}
				if f.op != "" {
					k.Window = w
				}
				if !seen[k.Formula] {
					seen[k.Formula] = true
					out = append(out, k)
				}
			}
		}
	}
	return out
}

// KernelSets returns the sets histories run on: every set of two to
// SetSize safe kernels that differ only in the [0,b] window of one once
// or since — the windows that share one table — narrowest first, and
// every other safe kernel alone. A table's kernel runs alone in each of
// its sets, as difftest's one checker per constraint, over histories
// that include its own (Gaps); a set of a > 0 windows, which keep a
// table each, would be its members side by side.
func KernelSets() [][]Kernel {
	var out [][]Kernel
	tables := map[string][]Kernel{}
	var order []string
	for _, k := range Kernels() {
		switch {
		case !k.Safe():
		case (k.Op == "once" || k.Op == "since") && k.Window.Lo == 0:
			if tables[k.table] == nil {
				order = append(order, k.table)
			}
			tables[k.table] = append(tables[k.table], k)
		default:
			out = append(out, []Kernel{k})
		}
	}
	for _, t := range order {
		for mask := 0; mask < 1<<len(tables[t]); mask++ {
			var set []Kernel
			for i, k := range tables[t] {
				if mask&(1<<i) != 0 {
					set = append(set, k)
				}
			}
			if len(set) >= 2 && len(set) <= SetSize {
				out = append(out, set)
			}
		}
	}
	return out
}

// Gaps is the boundary set of the kernels' windows: the spacings
// {1, a, a+1, b, b+1} of every window [a,b] that are finite and
// positive, which land a commit just inside, on and just past each edge.
func Gaps(set []Kernel) []uint64 {
	gaps := []uint64{1}
	for _, k := range set {
		edges := []uint64{k.Window.Lo, k.Window.Lo + 1}
		if !k.Window.Unbounded {
			edges = append(edges, k.Window.Hi, k.Window.Hi+1)
		}
		for _, g := range edges {
			if g > 0 && !slices.Contains(gaps, g) {
				gaps = append(gaps, g)
			}
		}
	}
	slices.Sort(gaps)
	return gaps
}

// Histories calls f with every history of HistoryLen commits for set,
// installed as constraints k0, k1, …. A commit lands one of Gaps(set)
// after the one before (the first at 1) and toggles one row of a
// relation the set reads, at value 0 or 1, or changes nothing. Skipped
// are the histories whose first commit changes nothing (the history
// without it is a prefix of others) or changes value 1 (swap values).
func Histories(set []Kernel, f func(workload.History)) {
	specs := make([]workload.ConstraintSpec, len(set))
	var rels []string
	for i, k := range set {
		specs[i] = workload.ConstraintSpec{Name: fmt.Sprintf("k%d", i), Source: k.Source()}
		for _, rel := range []string{"p", "q"} {
			if strings.Contains(k.Formula, rel+"(") && !slices.Contains(rels, rel) {
				rels = append(rels, rel)
			}
		}
	}
	gaps, rows := Gaps(set), 2*len(rels)
	script := make([]int, HistoryLen) // per commit: gap index × (rows+1) + row; rows is none
	for {
		h := workload.History{Schema: SmallSchema(), Constraints: specs}
		present := map[int]bool{}
		now := uint64(0)
		for i, c := range script {
			row, gap := c%(rows+1), gaps[c/(rows+1)]
			if i == 0 && (gap != 1 || row == rows || row%2 == 1) {
				h.Steps = nil
				break
			}
			now += gap
			tx := storage.NewTransaction()
			if row < rows {
				if rel, val := rels[row/2], tuple.Ints(int64(row%2)); present[row] {
					tx.Delete(rel, val)
				} else {
					tx.Insert(rel, val)
				}
				present[row] = !present[row]
			}
			h.Steps = append(h.Steps, workload.Step{Time: now, Tx: tx})
		}
		if h.Steps != nil {
			f(h)
		}
		i := len(script) - 1
		for ; i >= 0 && script[i] == (rows+1)*len(gaps)-1; i-- {
			script[i] = 0
		}
		if i < 0 {
			return
		}
		script[i]++
	}
}
