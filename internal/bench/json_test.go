package bench

import (
	"bytes"
	"runtime/debug"
	"strings"
	"testing"
)

func TestParseCell(t *testing.T) {
	cases := []struct {
		raw   string
		value float64
		unit  string
	}{
		{"", 0, ""},
		{"-", 0, ""},
		{"seq", 0, ""},
		{"14.4 µs", 14400, "ns"},
		{"14.4 μs", 14400, "ns"}, // U+03BC mu, the other micro sign
		{"250 ns", 250, "ns"},
		{"2.49 ms", 2.49e6, "ns"},
		{"1.5 s", 1.5e9, "ns"},
		{"93 B", 93, "bytes"},
		{"1.2 KiB", 1228.8, "bytes"},
		{"3.5 MiB", 3.5 * (1 << 20), "bytes"},
		{"59.1x", 59.1, "ratio"},
		{"0.1%", 0.1, "percent"},
		{"1000", 1000, "count"},
		{"inf", 0, ""},        // non-finite parses stay text: JSON cannot encode them
		{"12 parsecs", 0, ""}, // unknown unit stays a text cell
	}
	for _, c := range cases {
		got := ParseCell(c.raw)
		if got.Raw != c.raw || got.Unit != c.unit {
			t.Errorf("ParseCell(%q) = %+v, want unit %q", c.raw, got, c.unit)
			continue
		}
		if diff := got.Value - c.value; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("ParseCell(%q).Value = %v, want %v", c.raw, got.Value, c.value)
		}
	}
}

func sampleTables() []Table {
	return []Table{{
		ID:      "Table 1",
		Title:   "steady-state cost",
		Columns: []string{"domain", "incremental ns/tx", "naive ns/tx", "speedup"},
		Rows: [][]string{
			{"250", "20.0 µs", "100.0 µs", "5.0x"},
			{"500", "21.0 µs", "210.0 µs", "10.0x"},
		},
		Notes: "synthetic",
	}}
}

// TestStampedRev names a build from uncommitted changes by its parent
// revision plus "-dirty". Test binaries carry no VCS stamp, so the
// settings are built here.
func TestStampedRev(t *testing.T) {
	const rev = "fc9ec68776622e2948502a7891dbbf4a4d5f9ee1"
	for _, c := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{nil, ""},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: rev}}, rev},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: "false"}}, rev},
		{[]debug.BuildSetting{{Key: "vcs", Value: "git"}, {Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: "true"}}, rev + "-dirty"},
	} {
		if got := stampedRev(c.settings); got != c.want {
			t.Errorf("stampedRev(%v) = %q, want %q", c.settings, got, c.want)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := NewResult(sampleTables(), true, 1754500000)
	if err := Validate(res); err != nil {
		t.Fatal(err)
	}
	if res.GitRev == "" || res.GoVersion == "" || res.GOMAXPROCS < 1 {
		t.Fatalf("environment not captured: %+v", res)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.CreatedUnix != 1754500000 || !back.Quick {
		t.Errorf("round-trip lost run fields: %+v", back)
	}
	if len(back.Tables) != 1 || back.Tables[0].ID != "Table 1" {
		t.Fatalf("round-trip lost tables: %+v", back.Tables)
	}
	row := back.Tables[0].Rows[0]
	if row.Key != "250" {
		t.Errorf("row key %q, want %q", row.Key, "250")
	}
	if c := row.Cells[1]; c.Unit != "ns" || c.Value != 20000 {
		t.Errorf("cell not parsed through round-trip: %+v", c)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	base := func() Result { return NewResult(sampleTables(), false, 1) }
	cases := []struct {
		name   string
		mutate func(*Result)
		want   string
	}{
		{"schema", func(r *Result) { r.Schema = 99 }, "schema"},
		{"go_version", func(r *Result) { r.GoVersion = "" }, "go_version"},
		{"git_rev", func(r *Result) { r.GitRev = "" }, "git_rev"},
		{"gomaxprocs", func(r *Result) { r.GOMAXPROCS = 0 }, "gomaxprocs"},
		{"no tables", func(r *Result) { r.Tables = nil }, "no tables"},
		{"table id", func(r *Result) { r.Tables[0].ID = "" }, "missing id"},
		{"row key", func(r *Result) { r.Tables[0].Rows[0].Key = "" }, "missing key"},
		{"row width", func(r *Result) { r.Tables[0].Rows[0].Cells = r.Tables[0].Rows[0].Cells[:2] }, "cells for"},
		{"unit", func(r *Result) { r.Tables[0].Rows[0].Cells[0].Unit = "furlongs" }, "unknown unit"},
	}
	for _, c := range cases {
		r := base()
		c.mutate(&r)
		err := Validate(r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	compare := func(old, new Result) Report {
		t.Helper()
		rep, err := Compare(old, new)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	old := NewResult(sampleTables(), false, 1)
	same := NewResult(sampleTables(), false, 2)
	rep := compare(old, same)
	if !rep.OK() {
		t.Fatalf("identical runs flagged: %+v", rep.Regressions)
	}
	if len(rep.Deltas) != 4 { // 2 rows x 2 ns columns; ratio column excluded
		t.Fatalf("compared %d cells, want 4", len(rep.Deltas))
	}

	slow := sampleTables()
	slow[0].Rows[0][1] = "90.0 µs" // 4.5x the old 20 µs
	rep = compare(old, NewResult(slow, false, 3))
	if rep.OK() || len(rep.Regressions) != 1 {
		t.Fatalf("4.5x slowdown not flagged: %+v", rep.Regressions)
	}
	d := rep.Regressions[0]
	if d.Table != "Table 1" || d.Row != "250" || d.Column != "incremental ns/tx" {
		t.Errorf("regression located at %s/%s/%s", d.Table, d.Row, d.Column)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "REGRESSIONS") || !strings.Contains(buf.String(), "4.50x") {
		t.Errorf("render missing regression:\n%s", buf.String())
	}

	// A 4.5x speedup is not a regression, nor is a 2.5x slowdown.
	fast := sampleTables()
	fast[0].Rows[0][1] = "4.4 µs"
	fast[0].Rows[1][1] = "52.5 µs"
	if rep := compare(old, NewResult(fast, false, 4)); !rep.OK() {
		t.Errorf("speedup or 2.5x slowdown flagged as regression: %+v", rep.Regressions)
	}

	// Count, byte and percent cells are logical sizes fixed by the seed:
	// every change is a regression, in every column and from 0 too.
	countTables := func(allocs, entries, bytes, share string) []Table {
		t := sampleTables()
		t[0].Columns = append(t[0].Columns, "incremental allocs/tx", "aux entries", "aux bytes", "skipped")
		t[0].Rows[0] = append(t[0].Rows[0], allocs, entries, bytes, share)
		t[0].Rows[1] = append(t[0].Rows[1], "0", "8", "651 B", "86.2%")
		return t
	}
	base := countTables("0", "8", "744 B", "65.6%")
	if rep := compare(NewResult(base, false, 6), NewResult(countTables("0", "8", "744 B", "65.6%"), false, 7)); !rep.OK() || len(rep.Deltas) != 12 {
		t.Fatalf("identical counts: %d cells compared, regressions %+v; want 12 and none", len(rep.Deltas), rep.Regressions)
	}
	for _, c := range []struct {
		name, column string
		old, new     []Table
	}{
		{"0 -> 30 allocations", "incremental allocs/tx", base, countTables("30", "8", "744 B", "65.6%")},
		{"1.5x allocation growth", "incremental allocs/tx", countTables("10", "8", "744 B", "65.6%"), countTables("15", "8", "744 B", "65.6%")},
		{"aux entries off by one", "aux entries", base, countTables("0", "9", "744 B", "65.6%")},
		{"aux bytes", "aux bytes", base, countTables("0", "8", "837 B", "65.6%")},
		{"decision share", "skipped", base, countTables("0", "8", "744 B", "65.5%")},
		{"count turned to text", "incremental allocs/tx", base, countTables("-", "8", "744 B", "65.6%")},
	} {
		rep := compare(NewResult(c.old, false, 8), NewResult(c.new, false, 9))
		if rep.OK() || len(rep.Regressions) != 1 || rep.Regressions[0].Column != c.column {
			t.Errorf("%s: regressions %+v, want one in %q", c.name, rep.Regressions, c.column)
		}
	}

	// Allocation counts belong to the toolchain: runs built by two Go
	// versions are refused, not compared.
	other := NewResult(sampleTables(), false, 10)
	other.GoVersion = "go0.0-other"
	if _, err := Compare(old, other); err == nil || !strings.Contains(err.Error(), "go0.0-other") {
		t.Errorf("Compare across Go versions = %v, want a refusal naming both", err)
	}

	// Disappearing tables, rows and columns are reported, not silently
	// skipped.
	shrunk := NewResult(sampleTables(), false, 5)
	shrunk.Tables[0].Rows = shrunk.Tables[0].Rows[:1]
	rep = compare(old, shrunk)
	if len(rep.Missing) != 1 || !strings.Contains(rep.Missing[0], `row "500"`) {
		t.Errorf("missing row not reported: %v", rep.Missing)
	}
	narrow := sampleTables()
	narrow[0].Columns = narrow[0].Columns[:3]
	for i := range narrow[0].Rows {
		narrow[0].Rows[i] = narrow[0].Rows[i][:3]
	}
	rep = compare(old, NewResult(narrow, false, 11))
	if len(rep.Missing) != 1 || !strings.Contains(rep.Missing[0], `column "speedup"`) {
		t.Errorf("missing column not reported: %v", rep.Missing)
	}
}
