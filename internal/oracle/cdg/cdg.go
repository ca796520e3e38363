// Package cdg checks the deadlock-freedom argument of Section 4.5.1: packets
// traverse each dimension monotonically (no U-turns) and turn from X to Y
// only, so the channel dependency graph (CDG) is acyclic. Rather than
// trusting the argument, tests build the CDG induced by the actual routing
// tables of route.Compute and check it for cycles. Like its parent package
// oracle, no binary links it.
package cdg

import (
	"fmt"

	"explink/internal/route"
	"explink/internal/topo"
)

// channelID identifies one directed network channel. dim is 0 for X (row)
// channels and 1 for Y (column) channels; line is the row or column index;
// from/to are positions along that line.
type channelID struct {
	dim, line, from, to int
}

type graph struct {
	adj map[channelID]map[channelID]bool
}

func newGraph() *graph {
	return &graph{adj: make(map[channelID]map[channelID]bool)}
}

func (g *graph) addDep(a, b channelID) {
	if g.adj[a] == nil {
		g.adj[a] = make(map[channelID]bool)
	}
	g.adj[a][b] = true
	if g.adj[b] == nil {
		g.adj[b] = make(map[channelID]bool)
	}
}

// acyclic runs an iterative three-color DFS over the dependency graph.
func (g *graph) acyclic() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[channelID]int, len(g.adj))
	type frame struct {
		node  channelID
		succs []channelID
		idx   int
	}
	for start := range g.adj {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start, succs: keys(g.adj[start])}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx >= len(f.succs) {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			next := f.succs[f.idx]
			f.idx++
			switch color[next] {
			case gray:
				return false
			case white:
				color[next] = gray
				stack = append(stack, frame{node: next, succs: keys(g.adj[next])})
			}
		}
	}
	return true
}

func keys(m map[channelID]bool) []channelID {
	out := make([]channelID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// RowAcyclic builds the CDG induced by one row's routing tables (every
// source-destination pair on the line) and reports whether it is acyclic.
func RowAcyclic(paths *route.RowPaths) (bool, error) {
	g := newGraph()
	if err := addLineDeps(g, paths, 0, 0); err != nil {
		return false, err
	}
	return g.acyclic(), nil
}

// addLineDeps walks every routed pair on one line (dim/line identify it) and
// records channel-to-channel dependencies.
func addLineDeps(g *graph, paths *route.RowPaths, dim, line int) error {
	for i := 0; i < paths.N; i++ {
		for j := 0; j < paths.N; j++ {
			if i == j {
				continue
			}
			p, err := paths.Path(i, j)
			if err != nil {
				return err
			}
			chs := make([]channelID, 0, len(p)-1)
			for k := 0; k+1 < len(p); k++ {
				chs = append(chs, channelID{dim: dim, line: line, from: p[k], to: p[k+1]})
			}
			for k := 0; k+1 < len(chs); k++ {
				g.addDep(chs[k], chs[k+1])
			}
			if len(chs) > 0 && g.adj[chs[0]] == nil {
				g.adj[chs[0]] = make(map[channelID]bool)
			}
		}
	}
	return nil
}

// TopologyAcyclic builds the full 2D channel dependency graph induced by XY
// dimension-order routing with the per-row and per-column tables of the
// topology and reports whether it is acyclic (i.e. routing is deadlock-free).
func TopologyAcyclic(t topo.Topology, p route.Params) (bool, error) {
	g := newGraph()
	w, h := t.W, t.H

	rowPaths := make([]*route.RowPaths, h)
	colPaths := make([]*route.RowPaths, w)
	for y := 0; y < h; y++ {
		rowPaths[y] = route.Compute(t.Rows[y], p)
	}
	for x := 0; x < w; x++ {
		colPaths[x] = route.Compute(t.Cols[x], p)
	}

	// Intra-dimension dependencies.
	for y := 0; y < h; y++ {
		if err := addLineDeps(g, rowPaths[y], 0, y); err != nil {
			return false, fmt.Errorf("row %d: %w", y, err)
		}
	}
	for x := 0; x < w; x++ {
		if err := addLineDeps(g, colPaths[x], 1, x); err != nil {
			return false, fmt.Errorf("col %d: %w", x, err)
		}
	}

	// Cross-dimension dependencies: for every (src, dst) with both a
	// horizontal and a vertical component, the last X channel feeds the first
	// Y channel at the turning router.
	for sy := 0; sy < h; sy++ {
		for sx := 0; sx < w; sx++ {
			for dy := 0; dy < h; dy++ {
				for dx := 0; dx < w; dx++ {
					if sx == dx || sy == dy {
						continue
					}
					xPath, err := rowPaths[sy].Path(sx, dx)
					if err != nil {
						return false, err
					}
					yFirst := colPaths[dx].Next[sy][dy]
					lastX := channelID{dim: 0, line: sy, from: xPath[len(xPath)-2], to: dx}
					firstY := channelID{dim: 1, line: dx, from: sy, to: yFirst}
					g.addDep(lastX, firstY)
				}
			}
		}
	}
	return g.acyclic(), nil
}
