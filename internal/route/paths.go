package route

import (
	"fmt"
	"math"

	"explink/internal/topo"
)

// RowPaths holds directional shortest paths for one row placement.
// Dist[i][j] is the head latency from router i to j obeying the
// no-U-turn rule (rightward links only for j > i, leftward only for j < i).
// Next[i][j] is the first hop on that path (Next[i][i] == i). Hops and Units
// record the hop count and total Manhattan length of the chosen path.
type RowPaths struct {
	N     int
	Dist  [][]float64
	Next  [][]int
	Hops  [][]int
	Units [][]int
}

// Compute returns directional shortest paths for the row using a DAG dynamic
// program. Both directions of every link are present, but a path from i to j
// only ever uses links pointing toward j, exactly as the routing rule of
// Section 4.5.1 requires.
func Compute(row topo.Row, p Params) *RowPaths {
	n := row.N
	rp := newRowPaths(n)

	// Incoming rightward edges of v: the local link from v-1 plus every span
	// ending at v. Incoming leftward edges of v: the local link from v+1 plus
	// every span starting at v (traversed To -> From).
	inRight := make([][]int, n)
	inLeft := make([][]int, n)
	for v := 1; v < n; v++ {
		inRight[v] = append(inRight[v], v-1)
	}
	for v := 0; v < n-1; v++ {
		inLeft[v] = append(inLeft[v], v+1)
	}
	for _, s := range row.Canonical().Express {
		inRight[s.To] = append(inRight[s.To], s.From)
		inLeft[s.From] = append(inLeft[s.From], s.To)
	}

	for i := 0; i < n; i++ {
		parent := make([]int, n)
		for v := range parent {
			parent[v] = -1
		}
		rp.Dist[i][i] = 0
		rp.Next[i][i] = i
		// Rightward sweep from source i.
		for v := i + 1; v < n; v++ {
			best := math.Inf(1)
			bestU := -1
			for _, u := range inRight[v] {
				if u < i || math.IsInf(rp.Dist[i][u], 1) {
					continue
				}
				if d := rp.Dist[i][u] + p.EdgeCost(v-u); d < best {
					best, bestU = d, u
				}
			}
			rp.Dist[i][v] = best
			parent[v] = bestU
			if bestU >= 0 {
				rp.Hops[i][v] = rp.Hops[i][bestU] + 1
				rp.Units[i][v] = rp.Units[i][bestU] + (v - bestU)
			}
		}
		// Leftward sweep from source i.
		for v := i - 1; v >= 0; v-- {
			best := math.Inf(1)
			bestU := -1
			for _, u := range inLeft[v] {
				if u > i || math.IsInf(rp.Dist[i][u], 1) {
					continue
				}
				if d := rp.Dist[i][u] + p.EdgeCost(u-v); d < best {
					best, bestU = d, u
				}
			}
			rp.Dist[i][v] = best
			parent[v] = bestU
			if bestU >= 0 {
				rp.Hops[i][v] = rp.Hops[i][bestU] + 1
				rp.Units[i][v] = rp.Units[i][bestU] + (bestU - v)
			}
		}
		// Extract first hops by walking parents back to the source.
		for j := 0; j < n; j++ {
			if j == i || parent[j] < 0 {
				continue
			}
			v := j
			for parent[v] != i {
				v = parent[v]
			}
			rp.Next[i][j] = v
		}
	}
	return rp
}

func newRowPaths(n int) *RowPaths {
	rp := &RowPaths{
		N:     n,
		Dist:  make([][]float64, n),
		Next:  make([][]int, n),
		Hops:  make([][]int, n),
		Units: make([][]int, n),
	}
	for i := 0; i < n; i++ {
		rp.Dist[i] = make([]float64, n)
		rp.Next[i] = make([]int, n)
		rp.Hops[i] = make([]int, n)
		rp.Units[i] = make([]int, n)
		for j := 0; j < n; j++ {
			rp.Dist[i][j] = math.Inf(1)
			rp.Next[i][j] = -1
		}
	}
	return rp
}

// Path returns the router sequence from i to j (inclusive of both ends).
func (rp *RowPaths) Path(i, j int) ([]int, error) {
	if i < 0 || j < 0 || i >= rp.N || j >= rp.N {
		return nil, fmt.Errorf("route: path endpoints %d,%d out of range", i, j)
	}
	path := []int{i}
	for v := i; v != j; {
		nxt := rp.Next[v][j]
		if nxt < 0 || nxt == v {
			return nil, fmt.Errorf("route: no path from %d to %d (stuck at %d)", i, j, v)
		}
		path = append(path, nxt)
		v = nxt
	}
	return path, nil
}

// MeanDist returns the average of Dist over all N² ordered pairs, including
// the zero i==j diagonal, matching the N·N denominator of Eq. (2).
func (rp *RowPaths) MeanDist() float64 {
	var sum float64
	for i := 0; i < rp.N; i++ {
		for j := 0; j < rp.N; j++ {
			if i != j {
				sum += rp.Dist[i][j]
			}
		}
	}
	return sum / float64(rp.N*rp.N)
}

// MaxDist returns the largest pairwise head latency on the row.
func (rp *RowPaths) MaxDist() float64 {
	m := 0.0
	for i := 0; i < rp.N; i++ {
		for j := 0; j < rp.N; j++ {
			if rp.Dist[i][j] > m {
				m = rp.Dist[i][j]
			}
		}
	}
	return m
}
