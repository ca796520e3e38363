// Package oracle holds the reference evaluators that tests compare the
// production search against. No binary links it: production scores rows only
// through route.Incremental and route.Compute, and CI checks that no command,
// example or perfbench package depends on this package.
//
// The package imports only topo, so the in-package tests of route can use it
// without an import cycle. Edge costs therefore come in as the two integers of
// route.Params (Eq. (1): PerHop cycles per hop plus PerUnit cycles per unit of
// link length).
package oracle

import (
	"fmt"
	"math"

	"explink/internal/topo"
)

// Scratch is the full-evaluation reference for route.Incremental: it re-routes
// every source of a row from scratch with reusable buffers, without keeping
// any state between rows. The fuzz targets, the full-reference search drivers
// and the perf smokes compare the incremental evaluator against it. A Scratch
// grows lazily to the largest row it has seen and is not safe for concurrent
// use.
type Scratch struct {
	perHop, perUnit int
	inRight         [][]int // incoming rightward edges per router, reused across rows
	inLeft          [][]int // incoming leftward edges per router
	dist            []float64
}

// NewScratch returns an empty scratch for the edge-cost model
// perHop + length·perUnit; buffers grow on first use.
func NewScratch(perHop, perUnit int) *Scratch {
	return &Scratch{perHop: perHop, perUnit: perUnit}
}

// edgeCost is route.Params.EdgeCost for the scratch's cost model.
func (s *Scratch) edgeCost(length int) float64 {
	return float64(s.perHop + length*s.perUnit)
}

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
func (s *Scratch) distRow(i, n int) {
	d := s.dist
	d[i] = 0
	for v := i + 1; v < n; v++ {
		best := math.Inf(1)
		for _, u := range s.inRight[v] {
			if u < i || math.IsInf(d[u], 1) {
				continue
			}
			if c := d[u] + s.edgeCost(v-u); c < best {
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
			if c := d[u] + s.edgeCost(u-v); c < best {
				best = c
			}
		}
		d[v] = best
	}
}

// MeanMax returns the mean over all n² ordered pairs (the zero diagonal
// included, the N·N denominator of Eq. (2)) and the maximum of the row's
// directional shortest-path distances. Only a single distance row is kept, so
// the evaluation is allocation-free after warm-up. The mean accumulates pairs
// in row-major order, the order a fold over route.Compute's Dist table uses.
func (s *Scratch) MeanMax(row topo.Row) (mean, max float64) {
	n := row.N
	s.buildAdj(row)
	var sum float64
	for i := 0; i < n; i++ {
		s.distRow(i, n)
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

// MeanDist is the mean half of MeanMax.
func (s *Scratch) MeanDist(row topo.Row) float64 {
	mean, _ := s.MeanMax(row)
	return mean
}

// WeightedMean returns the w-weighted average of the row's pair distances,
// Σ w[i][j]·Dist[i][j] / Σ w[i][j], falling back to the uniform mean when w
// is nil or all-zero.
func (s *Scratch) WeightedMean(row topo.Row, w [][]float64) float64 {
	n := row.N
	s.buildAdj(row)
	var sum, num, den float64
	for i := 0; i < n; i++ {
		s.distRow(i, n)
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

// Optimum is the best row an exhaustive search found, its mean head latency
// and the number of rows it scored.
type Optimum struct {
	Row   topo.Row
	Mean  float64
	Evals int64
}

// ExhaustiveMatrix finds the optimum of P̃(n, C) by scoring every connection
// matrix with a Scratch. It validates the paper's claim that the
// connection-matrix space loses no useful solutions: tests assert its optimum
// matches bnb.OptimalRow's, and that SA finds it (Fig. 12's optimal
// reference). The first strictly better row wins, so ties keep the lowest
// matrix code. Practical only while (n-2)·(C-1) stays small; it panics past
// 2^26 matrices.
func ExhaustiveMatrix(n, c, perHop, perUnit int) Optimum {
	m := topo.NewConnMatrix(n, c)
	bits := m.Bits()
	if bits > 26 {
		panic(fmt.Sprintf("oracle: exhaustive matrix space 2^%d too large", bits))
	}
	s := NewScratch(perHop, perUnit)
	var best Optimum
	for code := 0; code < 1<<bits; code++ {
		for b := 0; b < bits; b++ {
			layer, router := b/(n-2), b%(n-2)+1
			m.Set(layer, router, code&(1<<b) != 0)
		}
		row := m.Row()
		mean := s.MeanDist(row)
		best.Evals++
		if best.Evals == 1 || mean < best.Mean {
			best.Mean = mean
			best.Row = row.Canonical()
		}
	}
	return best
}
