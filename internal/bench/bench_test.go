package bench

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rtic/internal/workload"
)

func TestRenderTable(t *testing.T) {
	tbl := Table{
		ID:      "Table X",
		Title:   "demo",
		Columns: []string{"a", "long column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "a note",
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"Table X — demo", "long column", "333", "note: a note"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered table missing %q:\n%s", frag, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if got := ns(500); got != "500 ns" {
		t.Errorf("ns(500) = %q", got)
	}
	if got := ns(2500); got != "2.5 µs" {
		t.Errorf("ns(2500) = %q", got)
	}
	if got := ns(3.2e6); got != "3.20 ms" {
		t.Errorf("ns(3.2e6) = %q", got)
	}
	if got := bytesStr(100); got != "100 B" {
		t.Errorf("bytesStr(100) = %q", got)
	}
	if got := bytesStr(4 << 10); got != "4.0 KiB" {
		t.Errorf("bytesStr = %q", got)
	}
	if got := bytesStr(3 << 20); got != "3.0 MiB" {
		t.Errorf("bytesStr = %q", got)
	}
	if got := ratio(10, 0); got != "-" {
		t.Errorf("ratio div by zero = %q", got)
	}
	if got := ratio(10, 4); got != "2.5x" {
		t.Errorf("ratio = %q", got)
	}
}

func TestReplayCountsViolations(t *testing.T) {
	h := workload.Tickets(workload.TicketsConfig{Steps: 100, Seed: 1, ViolationRate: 0.5})
	res, _, err := runIncremental(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.violations == 0 {
		t.Fatal("expected violations in dirty workload")
	}
	if res.nsPerStepAll <= 0 || res.totalNs <= 0 {
		t.Fatalf("timings not recorded: %+v", res)
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	tables, err := All(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 14 {
		t.Fatalf("got %d tables, want 14", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", tbl.ID)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s rendered empty", tbl.ID)
		}
	}
	checkCommitPath(t, tables[len(tables)-2])
	checkCheckpoint(t, tables[len(tables)-1])
}

// checkCheckpoint holds Table 12's claims: a steady save allocates
// nothing, and the first commit after a load does the work that commit
// does on the checker that saved.
func checkCheckpoint(t *testing.T, tbl Table) {
	t.Helper()
	if tbl.ID != "Table 12" || len(tbl.Rows) != 2 {
		t.Fatalf("%s has %d rows, want Table 12 with 2", tbl.ID, len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] != "0" {
			t.Errorf("Table 12 %s: a steady save allocates %s times, want 0", row[0], row[3])
		}
		if !slices.Equal(row[5:7], row[7:9]) {
			t.Errorf("Table 12 %s: the first commit after a load visits and executes %v, the same commit on the saving checker %v", row[0], row[5:7], row[7:9])
		}
	}
}

// checkCommitPath holds Table 11's protocol cells, which no toolchain
// moves: a train is acknowledged in one socket write, a commit reaches
// every journal in one write, and only SyncAlways fsyncs on the commit
// path (one per commit); an operator's read is answered in one write
// and allocates nothing. The baseline comparison holds every other
// cell.
func checkCommitPath(t *testing.T, tbl Table) {
	t.Helper()
	want := map[string][]string{ // sock writes, vfs writes, fsyncs per commit
		"train=1":                {"1.0000", "-", "-"},
		"train=12":               {"0.0833", "-", "-"},
		"feed=cdc":               {"0.0833", "-", "-"},
		"journals=1":             {"0.1000", "1.0000", "0.0000"},
		"journals=2":             {"0.1000", "2.0000", "0.0000"},
		"journals=1 sync=always": {"0.1000", "1.0000", "1.0000"},
		"policy-wide":            {"-", "-", "-"},
		"observer=stats":         {"1.0000", "-", "-"},
		"observer=metrics":       {"1.0000", "-", "-"},
		"observer=http":          {"1.0000", "-", "-"},
	}
	if tbl.ID != "Table 11" || len(tbl.Rows) != len(want) {
		t.Fatalf("%s has %d rows, want Table 11 with %d", tbl.ID, len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		if got := row[4:7]; !slices.Equal(got, want[row[0]]) {
			t.Errorf("Table 11 %s: sock, vfs writes and fsyncs per commit %v, want %v", row[0], got, want[row[0]])
		}
		if strings.HasPrefix(row[0], "observer=") && (row[2] != "0" || row[3] != "0") {
			t.Errorf("Table 11 %s: %s reads allocated %s times over %s GC cycles, want 0 and 0", row[0], row[1], row[2], row[3])
		}
	}
}

func TestFigure1SpaceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tbl, err := Figure1Space(true)
	if err != nil {
		t.Fatal(err)
	}
	// The naive/incremental space ratio must grow with history length —
	// the paper's headline space claim.
	first := parseRatio(t, tbl.Rows[0][3])
	last := parseRatio(t, tbl.Rows[len(tbl.Rows)-1][3])
	if last <= first {
		t.Fatalf("space ratio did not grow: first %.1f, last %.1f\nrows: %v", first, last, tbl.Rows)
	}
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio %q", s)
	}
	return v
}

func TestTable10CDCFreshnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tbl, err := Table10CDCFreshness(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 || tbl.Rows[0][0] != "steady" || tbl.Rows[1][0] != "burst" || tbl.Rows[2][0] != "feed" {
		t.Fatalf("unexpected rows: %v", tbl.Rows)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row width %d != %d columns: %v", len(row), len(tbl.Columns), row)
		}
	}
	// Steady-state CDC traffic must ride the cheap check paths — the
	// same invariant internal/cdcgen's skip regression test pins, here
	// asserted on the benchmark's own measurement.
	skipped := parsePercent(t, tbl.Rows[0][4])
	seeded := parsePercent(t, tbl.Rows[0][5])
	if skipped+seeded < 50 {
		t.Fatalf("steady phase skipped+seeded %.1f%% < 50%%:\n%v", skipped+seeded, tbl.Rows)
	}
}

func parsePercent(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q", s)
	}
	return v
}
