package route

import (
	"strings"
	"testing"

	"explink/internal/topo"
)

func TestTablesMesh(t *testing.T) {
	row := topo.MeshRow(4)
	tables := Tables(Compute(row, testParams))
	if len(tables) != 4 {
		t.Fatalf("tables = %d", len(tables))
	}
	// On a mesh the next hop is always the adjacent router toward the
	// destination.
	for _, tab := range tables {
		for d, nh := range tab.NextHop {
			switch {
			case d == tab.Router:
				if nh != tab.Router {
					t.Fatalf("self entry of router %d = %d", tab.Router, nh)
				}
			case d > tab.Router:
				if nh != tab.Router+1 {
					t.Fatalf("router %d -> %d via %d", tab.Router, d, nh)
				}
			default:
				if nh != tab.Router-1 {
					t.Fatalf("router %d -> %d via %d", tab.Router, d, nh)
				}
			}
		}
	}
}

func TestTableEntriesBound(t *testing.T) {
	// Section 4.5.2: at most 2(n-1) entries per router across both
	// dimensions, i.e. n-1 per line.
	row := topo.FlatButterflyRow(8)
	for _, tab := range Tables(Compute(row, testParams)) {
		got := 0
		for d, nh := range tab.NextHop {
			if d != tab.Router && nh >= 0 {
				got++
			}
		}
		if got != 7 {
			t.Fatalf("router %d has %d entries, want 7", tab.Router, got)
		}
	}
}

func TestTablesUseExpressLinks(t *testing.T) {
	// Fig. 3(b)'s example: on the optimal P̃(8,4) row, router 0 reaches
	// distant destinations via its express neighbors rather than hop by hop.
	row := topo.NewRow(8,
		topo.Span{From: 0, To: 2}, topo.Span{From: 0, To: 3}, topo.Span{From: 1, To: 3},
		topo.Span{From: 2, To: 5}, topo.Span{From: 3, To: 6}, topo.Span{From: 3, To: 7},
		topo.Span{From: 5, To: 7})
	tables := Tables(Compute(row, testParams))
	r0 := tables[0]
	// Destination 6: the best first hop is the express link to 3 (3+3=6
	// cycles) then 3->6 (3+3): total 12, versus any local start at >= 13.
	if r0.NextHop[6] != 3 {
		t.Fatalf("router 0 -> 6 via %d, want the 0-3 express link", r0.NextHop[6])
	}
}

func TestFormatTables(t *testing.T) {
	out := FormatTables(topo.MeshRow(4), testParams)
	if !strings.Contains(out, "router 0:") || !strings.Contains(out, "max 6 entries") {
		t.Fatalf("format output: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 {
		t.Fatalf("unexpected line count:\n%s", out)
	}
}
