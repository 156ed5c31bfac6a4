// Package experiments contains one runner per table/figure of the paper's
// evaluation. Each runner builds its workload, drives the simulator, and
// returns a Report whose rendered rows/series correspond to what the paper
// plots. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"
)

// Report is the printable result of one experiment.
type Report struct {
	// ID is the figure identifier, e.g. "fig4a".
	ID string
	// Title describes the experiment.
	Title string
	// Sections hold tables and series in presentation order.
	Sections []Section
}

// Section is one table or series group within a report.
type Section struct {
	Heading string
	Table   *Table
	Series  []Series
	Notes   []string
}

// Table is a simple column-aligned table.
type Table struct {
	Columns []string
	Rows    [][]string
}

// addRow appends a row of stringified cells.
func (t *Table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Series is a named (x, y) sequence — a CDF or a time series.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, s := range r.Sections {
		if s.Heading != "" {
			fmt.Fprintf(&b, "\n-- %s --\n", s.Heading)
		}
		if s.Table != nil {
			b.WriteString(s.Table.String())
		}
		if len(s.Series) > 0 {
			b.WriteString(plot(s.Series))
		}
		for _, ser := range s.Series {
			b.WriteString(ser.String())
		}
		for _, n := range s.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// String renders the series as x y pairs, subsampled to at most 40 points
// so reports stay readable; full resolution is available programmatically.
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series %s (%s vs %s), %d points:\n", s.Name, s.YLabel, s.XLabel, len(s.X))
	n := len(s.X)
	step := 1
	if n > 40 {
		step = n / 40
	}
	for i := 0; i < n; i += step {
		fmt.Fprintf(&b, "  %10.4f  %10.4f\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// f2, f3 and f1 format floats at fixed precision for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Scale selects experiment sizing: Quick keeps every shape visible at a
// fraction of the paper's scale so the full suite runs in minutes; full
// approaches the paper's parameters.
type Scale int

const (
	// Quick is the default CI-friendly scale.
	Quick Scale = iota
	// full approaches the paper's evaluation scale.
	full
)

// ParseScale maps a name to a Scale.
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "", "quick":
		return Quick, nil
	case "full":
		return full, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q", name)
}
