package bench

import (
	"bytes"
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
	if len(tables) != 13 {
		t.Fatalf("got %d tables, want 13", len(tables))
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
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "steady" || tbl.Rows[1][0] != "burst" {
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
	skipped := parsePercent(t, tbl.Rows[0][5])
	seeded := parsePercent(t, tbl.Rows[0][6])
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

func TestTable9ShardScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	tbl, err := Table9ShardScaling(true)
	if err != nil {
		t.Fatal(err)
	}
	// Unsharded baseline plus fan-outs 2, 4, 8; the identical-violations
	// assertion lives inside the experiment and surfaces as err.
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d rows, want 4:\n%v", len(tbl.Rows), tbl.Rows)
	}
	if tbl.Rows[0][0] != "unsharded" || tbl.Rows[3][0] != "8" {
		t.Fatalf("unexpected row labels: %v", tbl.Rows)
	}
}
