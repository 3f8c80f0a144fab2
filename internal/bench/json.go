// Machine-readable benchmark results: the BENCH_<date>.json schema the
// ROADMAP asks for, so the trajectory across Tables 1–9 is tracked
// per-PR instead of pasted into EXPERIMENTS.md by hand. A Result
// carries the environment (git revision, Go version, GOMAXPROCS) and
// every table cell both raw (the rendered string) and parsed (value +
// unit), so downstream tooling never re-parses "14.4 µs".
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// ResultSchema is the current BENCH_*.json schema version.
const ResultSchema = 1

// Result is one full benchmark run.
type Result struct {
	Schema      int           `json:"schema"`
	CreatedUnix int64         `json:"created_unix"` // run timestamp, seconds
	GitRev      string        `json:"git_rev"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Quick       bool          `json:"quick"`
	Tables      []ResultTable `json:"tables"`
}

// ResultTable mirrors one rendered Table.
type ResultTable struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Columns []string    `json:"columns"`
	Notes   string      `json:"notes,omitempty"`
	Rows    []ResultRow `json:"rows"`
}

// ResultRow is one table row; Key (the first cell's raw text) is what
// Compare matches rows by.
type ResultRow struct {
	Key   string `json:"key"`
	Cells []Cell `json:"cells"`
}

// Cell is one table cell: the rendered string plus its parsed value.
// Units: "ns" (durations, normalized to nanoseconds), "bytes",
// "ratio" ("59.1x"), "percent", "count" (bare numbers), or "" for
// text cells.
type Cell struct {
	Raw   string  `json:"raw"`
	Value float64 `json:"value,omitempty"`
	Unit  string  `json:"unit,omitempty"`
}

// ParseCell classifies one rendered cell. Unknown shapes come back as
// text cells (unit "").
func ParseCell(raw string) Cell {
	c := Cell{Raw: raw}
	s := strings.TrimSpace(raw)
	if s == "" || s == "-" {
		return c
	}
	if strings.HasSuffix(s, "%") {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64); err == nil {
			c.Value, c.Unit = v, "percent"
		}
		return c
	}
	if strings.HasSuffix(s, "x") {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64); err == nil {
			c.Value, c.Unit = v, "ratio"
		}
		return c
	}
	if fields := strings.Fields(s); len(fields) == 2 {
		v, err := strconv.ParseFloat(fields[0], 64)
		if err == nil {
			switch fields[1] {
			case "ns":
				c.Value, c.Unit = v, "ns"
			case "µs", "μs", "us":
				c.Value, c.Unit = v*1e3, "ns"
			case "ms":
				c.Value, c.Unit = v*1e6, "ns"
			case "s":
				c.Value, c.Unit = v*1e9, "ns"
			case "B":
				c.Value, c.Unit = v, "bytes"
			case "KiB":
				c.Value, c.Unit = v*(1<<10), "bytes"
			case "MiB":
				c.Value, c.Unit = v*(1<<20), "bytes"
			}
		}
		return c
	}
	// ParseFloat accepts "inf" and "nan" (Table 2's unbounded-window row
	// key is "inf"), but JSON cannot encode non-finite numbers — keep
	// those as text cells.
	if v, err := strconv.ParseFloat(s, 64); err == nil && !math.IsInf(v, 0) && !math.IsNaN(v) {
		c.Value, c.Unit = v, "count"
	}
	return c
}

// NewResult packages rendered tables with the run environment.
// createdUnix is the run timestamp (the caller owns the clock).
func NewResult(tables []Table, quick bool, createdUnix int64) Result {
	r := Result{
		Schema:      ResultSchema,
		CreatedUnix: createdUnix,
		GitRev:      GitRev(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       quick,
	}
	for _, t := range tables {
		rt := ResultTable{ID: t.ID, Title: t.Title, Columns: t.Columns, Notes: t.Notes}
		for _, row := range t.Rows {
			rr := ResultRow{}
			if len(row) > 0 {
				rr.Key = row[0]
			}
			for _, cell := range row {
				rr.Cells = append(rr.Cells, ParseCell(cell))
			}
			rt.Rows = append(rt.Rows, rr)
		}
		r.Tables = append(r.Tables, rt)
	}
	return r
}

// GitRev reports the VCS revision baked into the binary (see
// stampedRev), falling back to `git describe --always --dirty
// --abbrev=40`, then "unknown" — `go run` binaries are not stamped. A
// revision built from uncommitted changes ends in "-dirty" either way.
func GitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		if rev := stampedRev(info.Settings); rev != "" {
			return rev
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}

// stampedRev is the revision go build's VCS stamp names: vcs.revision,
// with "-dirty" appended when vcs.modified reports uncommitted changes;
// "" without a stamp.
func stampedRev(settings []debug.BuildSetting) string {
	rev, dirty := "", ""
	for _, s := range settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// WriteResult encodes r as indented JSON.
func WriteResult(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadResult decodes and validates one BENCH_*.json.
func ReadResult(rd io.Reader) (Result, error) {
	var r Result
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("bench: decoding result: %w", err)
	}
	if err := Validate(r); err != nil {
		return r, err
	}
	return r, nil
}

// validUnits is the closed set a schema-1 cell may carry.
var validUnits = map[string]bool{"": true, "ns": true, "bytes": true, "ratio": true, "percent": true, "count": true}

// Validate checks a Result against the schema: version, environment
// fields, and per-table shape (every row as wide as its header, keys
// present, units from the closed set).
func Validate(r Result) error {
	if r.Schema != ResultSchema {
		return fmt.Errorf("bench: schema %d, want %d", r.Schema, ResultSchema)
	}
	if r.GoVersion == "" {
		return fmt.Errorf("bench: missing go_version")
	}
	if r.GitRev == "" {
		return fmt.Errorf("bench: missing git_rev")
	}
	if r.GOMAXPROCS < 1 {
		return fmt.Errorf("bench: implausible gomaxprocs %d", r.GOMAXPROCS)
	}
	if len(r.Tables) == 0 {
		return fmt.Errorf("bench: no tables")
	}
	for i, t := range r.Tables {
		if t.ID == "" {
			return fmt.Errorf("bench: table %d: missing id", i)
		}
		if len(t.Columns) == 0 {
			return fmt.Errorf("bench: %s: no columns", t.ID)
		}
		if len(t.Rows) == 0 {
			return fmt.Errorf("bench: %s: no rows", t.ID)
		}
		for j, row := range t.Rows {
			if row.Key == "" {
				return fmt.Errorf("bench: %s row %d: missing key", t.ID, j)
			}
			if len(row.Cells) != len(t.Columns) {
				return fmt.Errorf("bench: %s row %q: %d cells for %d columns", t.ID, row.Key, len(row.Cells), len(t.Columns))
			}
			for k, c := range row.Cells {
				if !validUnits[c.Unit] {
					return fmt.Errorf("bench: %s row %q cell %d: unknown unit %q", t.ID, row.Key, k, c.Unit)
				}
			}
		}
	}
	return nil
}
