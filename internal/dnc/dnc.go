// Package dnc implements Procedure I(n, C), the divide-and-conquer
// initial-solution generator of Section 4.4.1: split the row into two halves,
// solve each at link limit C-1 (recursively, with branch and bound at the
// base), then add the single best cross-half express link. Sub-problems at
// limit C-1 guarantee the combined placement stays within C at every
// cross-section, because the one crossing link adds at most one to any cut.
//
// The overall complexity is O(n⁵) = O(N^2.5) as the paper derives with the
// master theorem: O(n²) crossing candidates per combination, each evaluated
// by an O(n³)-class routing pass.
package dnc

import (
	"fmt"

	"explink/internal/bnb"
	"explink/internal/model"
	"explink/internal/route"
	"explink/internal/topo"
)

// BaseSize is the sub-problem size at which recursion stops and branch and
// bound finds the exact local optimum ("if n is small enough", line 2 of the
// procedure; the paper suggests n <= 4).
const BaseSize = 4

// Result carries the initial placement and its evaluation cost.
type Result struct {
	Row   topo.Row
	Mean  float64 // average row head latency of the placement
	Evals int64   // placement evaluations spent, the Fig. 7 runtime unit
}

// Initial generates the initial solution for P̃(n, C).
func Initial(n, c int, p model.Params) Result {
	if n < 1 || c < 1 {
		panic(fmt.Sprintf("dnc: invalid problem P(%d,%d)", n, c))
	}
	g := &generator{p: p, inc: route.NewIncremental(p.Route()), memo: make(map[[2]int]Result)}
	res := g.solve(n, c)
	res.Evals = g.evals
	return res
}

type generator struct {
	p     model.Params
	inc   *route.Incremental // incremental evaluator, reused across combines
	evals int64
	memo  map[[2]int]Result // sub-problem cache: equal halves are solved once
}

func (g *generator) solve(n, c int) Result {
	key := [2]int{n, c}
	if r, ok := g.memo[key]; ok {
		return r
	}
	var res Result
	switch {
	case c <= 1 || n <= 2:
		// No express layer available, or no room for an express span.
		row := topo.MeshRow(n)
		g.evals++
		res = Result{Row: row, Mean: model.RowMean(row, g.p)}
	case n <= BaseSize:
		b := bnb.OptimalRow(n, c, g.p)
		g.evals += b.Evals
		res = Result{Row: b.Row, Mean: b.Mean}
	default:
		res = g.combine(n, c)
	}
	g.memo[key] = res
	return res
}

// combine implements lines 6-13 of Procedure I(n, C): solve the halves at
// C-1 and pick the best single crossing express link. Every candidate is the
// base placement plus exactly one span, so the O(n²) scan runs on the
// incremental evaluator: one full re-route for the base, then per candidate
// only the sources whose paths can cross the added span. Update adds the span
// even when a crossing candidate (i, h) duplicates a left-half span ending at
// the cut; Row semantics keep the multiset, and a duplicate span changes no
// distance, matching the full evaluation of base.Add bit for bit.
func (g *generator) combine(n, c int) Result {
	h := n / 2
	left := g.solve(h, c-1)
	right := g.solve(n-h, c-1)

	base := topo.Row{N: n}
	base.Express = append(base.Express, left.Row.Express...)
	for _, s := range right.Row.Express {
		base.Express = append(base.Express, topo.Span{From: s.From + h, To: s.To + h})
	}

	g.inc.Reset(base)
	g.evals++
	bestMean := g.inc.Mean()
	bestSpan := topo.Span{}
	haveBest := false
	var spanBuf [1]topo.Span
	for i := 0; i < h; i++ {
		for j := h; j < n; j++ {
			if j-i < 2 {
				continue // adjacent pair is already a local link
			}
			spanBuf[0] = topo.Span{From: i, To: j}
			g.inc.Update(nil, spanBuf[:])
			g.evals++
			m := g.inc.Mean()
			g.inc.Revert()
			if m < bestMean {
				bestMean = m
				bestSpan, haveBest = spanBuf[0], true
			}
		}
	}
	best := base
	if haveBest {
		best = base.Add(bestSpan)
	}
	return Result{Row: best.Canonical(), Mean: bestMean}
}
