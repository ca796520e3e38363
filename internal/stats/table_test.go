package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("mesh", "25.90")
	tb.AddRowf("hfb", 21.75)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title in %q", out)
	}
	if !strings.Contains(out, "mesh") || !strings.Contains(out, "21.75") {
		t.Fatalf("missing rows in %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("xxxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// The second column must start at the same offset in header and data.
	if strings.Index(lines[0], "bbbb") != strings.Index(lines[2], "y") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestTableRowfTypes(t *testing.T) {
	tb := NewTable("", "c")
	tb.AddRowf(3)
	tb.AddRowf(int64(4))
	tb.AddRowf(2.5)
	tb.AddRowf(true)
	out := tb.String()
	for _, want := range []string{"3", "4", "2.50", "true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}
