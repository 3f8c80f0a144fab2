package bench

import (
	"fmt"
	"io"
)

// DurationFactor is how many times slower a duration cell may get
// before Compare calls it a regression. Durations move with the host
// and the hour; the counts beside them do not.
const DurationFactor = 3.0

// Delta is one matched cell across two benchmark runs.
type Delta struct {
	Table, Row, Column string
	OldRaw, NewRaw     string
	Old, New           float64
	// Exact marks a count, byte or percent cell: it regresses unless it
	// renders identically. A duration cell regresses beyond
	// DurationFactor.
	Exact bool
}

// regressed reports whether the cell moved beyond what its kind allows.
func (d Delta) regressed() bool {
	if d.Exact {
		return d.NewRaw != d.OldRaw
	}
	return d.New > DurationFactor*d.Old
}

// Report is the outcome of comparing two benchmark runs.
type Report struct {
	Deltas      []Delta  // every matched cell
	Regressions []Delta  // subset that regressed
	Missing     []string // tables, rows and columns present before, gone now
}

// Compare matches the two runs' cells — tables by ID, rows by key,
// columns by header — and flags regressions. Both runs are taken to be
// valid (ReadResult validates what it reads). Count, byte and percent
// cells are logical sizes fixed by the experiments' seeds, so they must
// match exactly, 0 included; duration cells may grow up to
// DurationFactor; ratio and text cells are not gated. Allocation counts
// belong to the toolchain, so two runs built by different Go versions
// are refused.
func Compare(old, new Result) (Report, error) {
	var rep Report
	if old.GoVersion != new.GoVersion {
		return rep, fmt.Errorf("bench: runs built by %s and %s; allocation counts compare only under one Go version", old.GoVersion, new.GoVersion)
	}
	newTables := map[string]ResultTable{}
	for _, t := range new.Tables {
		newTables[t.ID] = t
	}
	for _, ot := range old.Tables {
		nt, ok := newTables[ot.ID]
		if !ok {
			rep.Missing = append(rep.Missing, ot.ID)
			continue
		}
		newRows := map[string]ResultRow{}
		for _, r := range nt.Rows {
			newRows[r.Key] = r
		}
		newCol := map[string]int{}
		for i, c := range nt.Columns {
			newCol[c] = i
		}
		for _, c := range ot.Columns {
			if _, ok := newCol[c]; !ok {
				rep.Missing = append(rep.Missing, fmt.Sprintf("%s column %q", ot.ID, c))
			}
		}
		for _, orow := range ot.Rows {
			nrow, ok := newRows[orow.Key]
			if !ok {
				rep.Missing = append(rep.Missing, fmt.Sprintf("%s row %q", ot.ID, orow.Key))
				continue
			}
			for i := 1; i < len(orow.Cells); i++ { // cell 0 is the key
				oc := orow.Cells[i]
				j, ok := newCol[ot.Columns[i]]
				if !ok {
					continue
				}
				exact := oc.Unit == "count" || oc.Unit == "bytes" || oc.Unit == "percent"
				if !exact && (oc.Unit != "ns" || oc.Value <= 0) {
					continue
				}
				nc := nrow.Cells[j]
				d := Delta{
					Table: ot.ID, Row: orow.Key, Column: ot.Columns[i],
					OldRaw: oc.Raw, NewRaw: nc.Raw, Old: oc.Value, New: nc.Value,
					// A duration that lost its unit can only be held to its text.
					Exact: exact || nc.Unit != oc.Unit,
				}
				rep.Deltas = append(rep.Deltas, d)
				if d.regressed() {
					rep.Regressions = append(rep.Regressions, d)
				}
			}
		}
	}
	return rep, nil
}

// OK reports whether the comparison found no regressions.
func (r Report) OK() bool { return len(r.Regressions) == 0 }

// Render writes the report as a human-readable summary: regressions
// first, then every matched cell.
func (r Report) Render(w io.Writer) {
	if len(r.Regressions) > 0 {
		fmt.Fprintf(w, "REGRESSIONS:\n")
		for _, d := range r.Regressions {
			fmt.Fprintf(w, "  %s / %s / %s: %s -> %s (%s)\n", d.Table, d.Row, d.Column, d.OldRaw, d.NewRaw, d.rule())
		}
	} else {
		fmt.Fprintf(w, "no regressions: counts, bytes and percentages identical, durations within %.0fx\n", DurationFactor)
	}
	for _, m := range r.Missing {
		fmt.Fprintf(w, "  missing in new run: %s\n", m)
	}
	fmt.Fprintf(w, "%d cells compared:\n", len(r.Deltas))
	for _, d := range r.Deltas {
		fmt.Fprintf(w, "  %s / %s / %s: %s -> %s (%s)\n", d.Table, d.Row, d.Column, d.OldRaw, d.NewRaw, d.rule())
	}
}

// rule names the cell's gate and where the new value stands against it.
func (d Delta) rule() string {
	if d.Exact {
		return "exact"
	}
	return fmt.Sprintf("%.2fx, limit %.0fx", d.New/d.Old, DurationFactor)
}
