package route

import (
	"math"

	"explink/internal/topo"
)

// ComputeFloydWarshall returns the same directional shortest paths using the
// paper's construction: Floyd-Warshall run twice on the full link graph, once
// with all leftward edges at infinite weight and once with all rightward
// edges at infinite weight. It is the oracle the tests check Compute
// against; production routes with Compute.
func ComputeFloydWarshall(row topo.Row, p Params) *RowPaths {
	n := row.N
	right := fwDirection(row, p, true)
	left := fwDirection(row, p, false)
	rp := newRowPaths(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			src := right
			if j < i {
				src = left
			}
			rp.Dist[i][j] = src.dist[i][j]
			rp.Next[i][j] = src.next[i][j]
		}
		rp.Dist[i][i] = 0
		rp.Next[i][i] = i
	}
	return rp
}

type fwResult struct {
	dist [][]float64
	next [][]int
}

func fwDirection(row topo.Row, p Params, rightward bool) fwResult {
	n := row.N
	inf := math.Inf(1)
	r := fwResult{
		dist: make([][]float64, n),
		next: make([][]int, n),
	}
	for i := 0; i < n; i++ {
		r.dist[i] = make([]float64, n)
		r.next[i] = make([]int, n)
		for j := 0; j < n; j++ {
			r.dist[i][j] = inf
			r.next[i][j] = -1
		}
		r.dist[i][i] = 0
		r.next[i][i] = i
	}
	addEdge := func(u, v int) {
		length := v - u
		if length < 0 {
			length = -length
		}
		if w := p.EdgeCost(length); w < r.dist[u][v] {
			r.dist[u][v] = w
			r.next[u][v] = v
		}
	}
	for u := 0; u < n-1; u++ {
		if rightward {
			addEdge(u, u+1)
		} else {
			addEdge(u+1, u)
		}
	}
	for _, s := range row.Express {
		if rightward {
			addEdge(s.From, s.To)
		} else {
			addEdge(s.To, s.From)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if math.IsInf(r.dist[i][k], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d := r.dist[i][k] + r.dist[k][j]; d < r.dist[i][j] {
					r.dist[i][j] = d
					r.next[i][j] = r.next[i][k]
				}
			}
		}
	}
	return r
}
