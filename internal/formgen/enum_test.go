package formgen

import (
	"fmt"
	"strings"
	"testing"

	"rtic/internal/workload"
)

// TestEnumerator holds the enumerator to its construction: no kernel is
// a renaming of another, every operator and window shape occurs, the
// gaps are each window's edges, and the counts are the ones promised.
func TestEnumerator(t *testing.T) {
	ks := Kernels()
	byFormula, shapes, safe := map[string]Kernel{}, map[string]bool{}, 0
	for _, k := range ks {
		byFormula[k.Formula] = k
	}
	rels, vars := strings.NewReplacer("p(", "q(", "q(", "p("), strings.NewReplacer("(x)", "(y)", "(y)", "(x)")
	for _, k := range ks {
		for _, r := range []string{rels.Replace(k.Formula), vars.Replace(k.Formula), rels.Replace(vars.Replace(k.Formula))} {
			if _, ok := byFormula[r]; ok && r != k.Formula {
				t.Errorf("%q and %q are renamings of each other", k.Formula, r)
			}
		}
		shapes["not"] = shapes["not"] || strings.Contains(k.Formula, "not ")
		shapes["and"] = shapes["and"] || strings.Contains(k.Formula, " and ")
		if k.Safe() {
			safe++
			shapes[fmt.Sprintf("%s a>0=%v b=∞=%v", k.Op, k.Window.Lo > 0, k.Window.Unbounded)] = true
		}
	}
	for _, op := range []string{"once", "since"} {
		for _, shape := range []string{"a>0=false b=∞=false", "a>0=false b=∞=true", "a>0=true b=∞=false", "a>0=true b=∞=true"} {
			if !shapes[op+" "+shape] {
				t.Errorf("no safe kernel %s %s", op, shape)
			}
		}
	}
	if !shapes["not"] || !shapes["and"] || !shapes["prev a>0=false b=∞=false"] {
		t.Errorf("an operator never occurs: %v", shapes)
	}
	for f, want := range map[string]string{"once[0,0] p(x)": "[1]", "once p(x)": "[1]", "once[0,2] p(x)": "[1 2 3]",
		"prev[1,1] p(x)": "[1 2]", "p(x) since[2,*] q(x)": "[1 2 3]", "p(x) and q(x)": "[1]"} {
		if got := fmt.Sprint(Gaps([]Kernel{byFormula[f]})); got != want {
			t.Errorf("Gaps(%s) = %s, want %s: {1, a, a+1, b, b+1}, finite and positive", f, got, want)
		}
	}

	// Every kernel of up to three nodes over two unary relations and x,
	// y: 95 up to renaming, 40 safe — p(x), p(x) and p(y), p(x) and q(x),
	// p(x) and q(y), and once p(x), prev p(x), p(x) since p(x),
	// p(x) since q(x) at each of the nine windows. A set reading r
	// relations with g gaps has r·((2r+1)·g)^(n−1) histories: the first
	// commit inserts a row at value 0 at time 1, every later one toggles
	// one of 2r rows or none, one of g gaps later.
	sets := KernelSets()
	if len(ks) != 95 || safe != 40 || len(sets) != 28+3*11 {
		t.Fatalf("%d kernels, %d safe, %d sets: want 95, 40 and 61 (the 28 that share no table alone, 11 sets of two to four [0,b] windows for each of 3 tables)", len(ks), safe, len(sets))
	}
	runs := 0
	for _, set := range sets {
		r, want := 1, 1
		if strings.Contains(set[0].Formula, "q(") {
			r, want = 2, 2
		}
		for i := 1; i < HistoryLen; i++ {
			want *= (2*r + 1) * len(Gaps(set))
		}
		n := 0
		Histories(set, func(h workload.History) {
			if n++; len(h.Steps) != HistoryLen || h.Steps[0].Time != 1 || len(h.Constraints) != len(set) {
				t.Fatalf("%v: history %v", set, h.Steps)
			}
		})
		if runs += n; n != want {
			t.Errorf("%s: %d histories, want %d", set[0].Formula, n, want)
		}
	}
	t.Logf("%d kernels (%d safe), %d kernel sets, %d histories of %d commits", len(ks), safe, len(sets), runs, HistoryLen)
}
