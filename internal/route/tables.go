package route

import (
	"fmt"
	"strings"

	"explink/internal/topo"
)

// Table is the per-router lookup table of Fig. 3(b): for each destination
// position on the router's row (or column), the next-hop position the packet
// must be forwarded to. The simulator derives its output-port numbers from
// exactly this table; the type exists so tools can display and export the
// hardware contents the paper describes (at most 2(n-1) entries per router).
type Table struct {
	Router int
	// NextHop[d] is the next router position toward destination d on the
	// same line; NextHop[Router] is the router itself.
	NextHop []int
}

// Tables extracts per-router tables from a row's directional shortest paths.
func Tables(paths *RowPaths) []Table {
	out := make([]Table, paths.N)
	for r := 0; r < paths.N; r++ {
		t := Table{Router: r, NextHop: make([]int, paths.N)}
		copy(t.NextHop, paths.Next[r])
		out[r] = t
	}
	return out
}

// String renders one router's table like Fig. 3(b): destination -> next hop.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router %d:", t.Router)
	for d, nh := range t.NextHop {
		if d == t.Router {
			continue
		}
		fmt.Fprintf(&b, " %d->%d", d, nh)
	}
	return b.String()
}

// FormatTables renders all routing tables of a row placement, one line per
// router, for CLI display and documentation.
func FormatTables(row topo.Row, p Params) string {
	paths := Compute(row, p)
	var b strings.Builder
	fmt.Fprintf(&b, "routing tables for %v (max %d entries per router per dimension)\n",
		row, 2*(row.N-1))
	for _, t := range Tables(paths) {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}
