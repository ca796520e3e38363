package topo

import "fmt"

// Topology is a full W x H network: one row placement per mesh row (its X
// links, W routers each) and one per mesh column (its Y links, H routers
// each). The paper's general-purpose designs replicate a single row solution
// across a square network (the 2D->1D lemma); this type also supports
// rectangular networks (W != H, each dimension solved independently) and the
// per-line placements of the application-specific variant (Section 5.6.4).
//
// Node ids are y*W + x with x in [0, W) and y in [0, H).
type Topology struct {
	Name string
	W, H int   // W columns per row, H rows per column
	Rows []Row // Rows[y] places the X links of mesh row y; len H, each Row.N == W
	Cols []Row // Cols[x] places the Y links of mesh column x; len W, each Row.N == H
}

// N returns the side length of a square topology and panics for rectangular
// ones; it exists for the (common) square-only call sites.
func (t Topology) N() int {
	if t.W != t.H {
		panic(fmt.Sprintf("topo: N() on rectangular %dx%d topology %q", t.W, t.H, t.Name))
	}
	return t.W
}

// Uniform builds a square topology that replicates one row placement across
// all rows and columns, as the lemma in Section 4.2 prescribes.
func Uniform(name string, n int, row Row) Topology {
	if row.N != n {
		panic(fmt.Sprintf("topo: row has %d routers, network needs %d", row.N, n))
	}
	return Rect(name, n, n, row, row)
}

// Rect builds a W x H topology replicating rowPlace across the H rows and
// colPlace across the W columns. rowPlace must span W routers and colPlace H.
func Rect(name string, w, h int, rowPlace, colPlace Row) Topology {
	if rowPlace.N != w {
		panic(fmt.Sprintf("topo: row placement has %d routers, want W=%d", rowPlace.N, w))
	}
	if colPlace.N != h {
		panic(fmt.Sprintf("topo: column placement has %d routers, want H=%d", colPlace.N, h))
	}
	t := Topology{Name: name, W: w, H: h, Rows: make([]Row, h), Cols: make([]Row, w)}
	for y := 0; y < h; y++ {
		t.Rows[y] = rowPlace.Clone()
	}
	for x := 0; x < w; x++ {
		t.Cols[x] = colPlace.Clone()
	}
	return t
}

// Mesh returns the baseline n x n mesh.
func Mesh(n int) Topology { return Uniform("Mesh", n, MeshRow(n)) }

// MeshRect returns a plain w x h mesh.
func MeshRect(w, h int) Topology {
	return Rect(fmt.Sprintf("Mesh%dx%d", w, h), w, h, MeshRow(w), MeshRow(h))
}

// HFB returns the hybrid flattened butterfly on n x n (Fig. 4). Note that the
// 2D HFB of the paper is exactly the row-replicated HFBRow: within each
// quadrant every row segment and column segment is fully connected, and
// quadrants meet through local links only.
func HFB(n int) Topology { return Uniform("HFB", n, HFBRow(n)) }

// FlattenedButterfly returns the full flattened butterfly on n x n.
func FlattenedButterfly(n int) Topology {
	return Uniform("FB", n, FlatButterflyRow(n))
}

// Validate checks structural consistency and that every row and column obeys
// link limit c.
func (t Topology) Validate(c int) error {
	if t.W < 1 || t.H < 1 {
		return fmt.Errorf("topo: topology %q has degenerate size %dx%d", t.Name, t.W, t.H)
	}
	if len(t.Rows) != t.H || len(t.Cols) != t.W {
		return fmt.Errorf("topo: topology %q needs %d rows and %d cols, got %d/%d",
			t.Name, t.H, t.W, len(t.Rows), len(t.Cols))
	}
	for i, r := range t.Rows {
		if r.N != t.W {
			return fmt.Errorf("topo: row %d has %d routers, want %d", i, r.N, t.W)
		}
		if err := r.Validate(c); err != nil {
			return fmt.Errorf("topo: row %d: %w", i, err)
		}
	}
	for i, col := range t.Cols {
		if col.N != t.H {
			return fmt.Errorf("topo: col %d has %d routers, want %d", i, col.N, t.H)
		}
		if err := col.Validate(c); err != nil {
			return fmt.Errorf("topo: col %d: %w", i, err)
		}
	}
	return nil
}

// MaxCrossSection returns the largest cross-section link count over all rows
// and columns — the effective C the topology requires.
func (t Topology) MaxCrossSection() int {
	m := 0
	for _, r := range t.Rows {
		if v := r.MaxCrossSection(); v > m {
			m = v
		}
	}
	for _, c := range t.Cols {
		if v := c.MaxCrossSection(); v > m {
			m = v
		}
	}
	return m
}

// NumRouters returns W·H.
func (t Topology) NumRouters() int { return t.W * t.H }

// Coords maps a router id, y*W + x, to its column x and row y.
func (t Topology) Coords(id int) (x, y int) { return id % t.W, id / t.W }

// RouterDegree returns the number of network channels (row + column
// neighbors, excluding the local NI port) at router id.
func (t Topology) RouterDegree(id int) int {
	x, y := t.Coords(id)
	return t.Rows[y].Degree(x) + t.Cols[x].Degree(y)
}

// AvgRouterDegree returns the mean channel degree over all routers, used by
// the power model's crossbar term (Section 4.6).
func (t Topology) AvgRouterDegree() float64 {
	total := 0
	for id := 0; id < t.NumRouters(); id++ {
		total += t.RouterDegree(id)
	}
	return float64(total) / float64(t.NumRouters())
}
