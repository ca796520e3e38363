package stats

import (
	"fmt"
	"strings"
)

// Table accumulates rows of cells and renders them as an aligned plain-text
// table, the tabular unit of every experiment report. Its fields are exported
// (and JSON-tagged) so a Table round-trips through encoding/json unchanged;
// Report is the usual container.
type Table struct {
	Title  string     `json:"title,omitempty"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows"`
	// Notes are free-form lines attached to the table, rendered directly
	// under it (e.g. the "best: C=4 ..." summary of a sweep).
	Notes []string `json:"notes,omitempty"`
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row. Cells beyond the header width are kept; short rows
// are padded when rendered.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values: strings pass through, float64
// values render with %.2f, ints with %d, everything else with %v.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends one note line (rendered under the table).
func (t *Table) AddNote(note string) {
	t.Notes = append(t.Notes, note)
}

// AddNotef appends a formatted note line.
func (t *Table) AddNotef(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns followed by its notes.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if i == cols-1 {
				b.WriteString(cell) // no trailing padding on the last column
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(cols-1)))
		b.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		writeBlock(&b, n)
	}
	return b.String()
}

// writeBlock writes s and guarantees it ends with exactly one newline, so
// multi-line notes (heatmaps, diagrams) pass through unchanged.
func writeBlock(b *strings.Builder, s string) {
	b.WriteString(s)
	if !strings.HasSuffix(s, "\n") {
		b.WriteByte('\n')
	}
}
