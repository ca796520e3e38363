package route

import (
	"math"

	"explink/internal/topo"
)

// Scratch is the full-evaluation reference for Incremental: it re-routes
// every source of a row from scratch with reusable buffers, without keeping
// any state between rows. Production code scores rows through Incremental
// (and Compute for full tables); Scratch remains as the oracle that the
// fuzz target, the full-reference search drivers and the perf smokes compare
// against. A Scratch grows lazily to the largest row it has seen and is not
// safe for concurrent use.
type Scratch struct {
	inRight [][]int // incoming rightward edges per router, reused across rows
	inLeft  [][]int // incoming leftward edges per router
	dist    []float64
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// ensure grows the per-router buffers to hold rows of n routers.
func (s *Scratch) ensure(n int) {
	if len(s.dist) >= n {
		return
	}
	s.dist = make([]float64, n)
	old := len(s.inRight)
	s.inRight = append(s.inRight, make([][]int, n-old)...)
	s.inLeft = append(s.inLeft, make([][]int, n-old)...)
}

// buildAdj fills the incoming-edge lists for the row. Spans are visited in
// row order: shortest-path distances do not depend on edge order.
func (s *Scratch) buildAdj(row topo.Row) {
	n := row.N
	s.ensure(n)
	for v := 0; v < n; v++ {
		s.inRight[v] = s.inRight[v][:0]
		s.inLeft[v] = s.inLeft[v][:0]
	}
	for v := 1; v < n; v++ {
		s.inRight[v] = append(s.inRight[v], v-1)
	}
	for v := 0; v < n-1; v++ {
		s.inLeft[v] = append(s.inLeft[v], v+1)
	}
	for _, sp := range row.Express {
		s.inRight[sp.To] = append(s.inRight[sp.To], sp.From)
		s.inLeft[sp.From] = append(s.inLeft[sp.From], sp.To)
	}
}

// distRow computes the directional shortest distances from source i into
// s.dist[0:n]. Entries on the wrong side of previous sources are never read
// (the sweeps only consult routers between the source and the destination),
// so the buffer needs no clearing between sources.
func (s *Scratch) distRow(i, n int, p Params) {
	d := s.dist
	d[i] = 0
	for v := i + 1; v < n; v++ {
		best := math.Inf(1)
		for _, u := range s.inRight[v] {
			if u < i || math.IsInf(d[u], 1) {
				continue
			}
			if c := d[u] + p.EdgeCost(v-u); c < best {
				best = c
			}
		}
		d[v] = best
	}
	for v := i - 1; v >= 0; v-- {
		best := math.Inf(1)
		for _, u := range s.inLeft[v] {
			if u > i || math.IsInf(d[u], 1) {
				continue
			}
			if c := d[u] + p.EdgeCost(u-v); c < best {
				best = c
			}
		}
		d[v] = best
	}
}

// MeanMax returns MeanDist and MaxDist of the row's directional shortest
// paths without materializing any n x n table: only a single distance row is
// kept, so the evaluation is allocation-free after warm-up. The mean
// accumulates in the same pair order as RowPaths.MeanDist, so the result is
// bit-identical to Compute(row, p).MeanDist().
func (s *Scratch) MeanMax(row topo.Row, p Params) (mean, max float64) {
	n := row.N
	s.buildAdj(row)
	var sum float64
	for i := 0; i < n; i++ {
		s.distRow(i, n, p)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := s.dist[j]
			sum += d
			if d > max {
				max = d
			}
		}
	}
	return sum / float64(n*n), max
}

// MeanDist is the mean-only entry point of the fast path.
func (s *Scratch) MeanDist(row topo.Row, p Params) float64 {
	mean, _ := s.MeanMax(row, p)
	return mean
}

// WeightedMean returns the w-weighted average of the row's pair distances,
// Σ w[i][j]·Dist[i][j] / Σ w[i][j], falling back to the uniform mean when w
// is nil or all-zero — the same contract as computing the full tables and
// folding them, but without the n x n allocations.
func (s *Scratch) WeightedMean(row topo.Row, p Params, w [][]float64) float64 {
	n := row.N
	s.buildAdj(row)
	var sum, num, den float64
	for i := 0; i < n; i++ {
		s.distRow(i, n, p)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sum += s.dist[j]
			if w != nil {
				num += w[i][j] * s.dist[j]
				den += w[i][j]
			}
		}
	}
	if w == nil || den == 0 {
		return sum / float64(n*n)
	}
	return num / den
}
