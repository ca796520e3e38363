// Package bnb provides exhaustive optimal solvers for the one-dimensional
// express-link placement problem P̃(n, C). They serve two roles from the
// paper: the base case of the divide-and-conquer initial-solution procedure
// I(n, C) (Section 4.4.1, "the local optimal solution can be located by
// enumeration methods such as simple branch and bound"), and the optimal
// reference that Fig. 12 compares D&C_SA against.
package bnb

import (
	"fmt"

	"explink/internal/model"
	"explink/internal/route"
	"explink/internal/topo"
)

// Result is an optimal placement along with its objective value and the
// number of placement evaluations spent finding it (the runtime proxy used
// in Fig. 7 and Fig. 12).
type Result struct {
	Row   topo.Row
	Mean  float64 // average row head latency (the P̃ objective)
	Evals int64
}

// OptimalRow finds the placement minimizing the average head latency of a
// row of n routers under link limit c, by branch and bound over the raw span
// space: spans are considered in (From, To) order; each is included or
// excluded; infeasible inclusions (cross-section over the limit) are cut, and
// subtrees are pruned when even the superset of all remaining spans cannot
// beat the incumbent (adding links never increases any shortest path, so
// that superset is an admissible bound).
//
// Duplicate spans are never considered: a duplicate consumes cross-section
// capacity without changing any distance, so some optimum is duplicate-free.
func OptimalRow(n, c int, p model.Params) Result {
	return optimalRow(n, c, p, true)
}

// ExhaustiveRaw finds the same optimum with feasibility pruning only — the
// plain "exhaustive search algorithm with branch and bound" the paper times
// in Fig. 12. It visits (and evaluates) every feasible duplicate-free
// placement, so its evaluation count measures the size of the raw search
// space rather than the cleverness of the bound.
func ExhaustiveRaw(n, c int, p model.Params) Result {
	return optimalRow(n, c, p, false)
}

func optimalRow(n, c int, p model.Params, useBound bool) Result {
	if n < 1 || c < 1 {
		panic(fmt.Sprintf("bnb: invalid problem P(%d,%d)", n, c))
	}
	mesh := topo.MeshRow(n)
	st := &searcher{n: n, c: c, p: p, cur: route.NewIncremental(p.Route()), useBound: useBound}
	st.spans = allSpans(n)
	st.cuts = make([]int, maxInt(n-1, 0))
	st.cur.Reset(mesh)
	st.best = Result{Row: mesh, Mean: st.cur.Mean(), Evals: 0}
	st.evals = 1 // the mesh evaluation above
	if c > 1 {
		if useBound {
			st.super = route.NewIncremental(p.Route())
			st.super.Reset(topo.Row{N: n, Express: st.spans})
		}
		st.search(0, topo.Row{N: n})
	}
	st.best.Evals = st.evals
	st.best.Row = st.best.Row.Canonical()
	return st.best
}

// searcher drives the DFS on two incremental evaluators that mirror the tree
// walk: cur tracks the current partial placement (one span added per include
// descent), and super tracks the bound superset cur + spans[idx:]. The
// superset is invariant along include edges (the span moves from "remaining"
// to "chosen") and loses exactly one span along exclude edges, so every bound
// evaluation re-routes only that one span's dirty region instead of the whole
// row. allSpans is duplicate-free and cur and spans[idx:] partition the chosen
// and remaining candidates, so neither evaluator ever holds a duplicate span.
type searcher struct {
	n, c     int
	p        model.Params
	cur      *route.Incremental // mirrors the current partial placement
	super    *route.Incremental // mirrors cur + spans[idx:]; nil when unused
	spans    []topo.Span
	cuts     []int // express links currently covering each cut
	best     Result
	evals    int64
	useBound bool
}

func (s *searcher) search(idx int, cur topo.Row) {
	// Bound: the superset of the current row plus every remaining span is at
	// least as good as anything in this subtree (adding links never lengthens
	// a shortest path).
	if s.useBound {
		s.evals++
		if s.super.Mean() >= s.best.Mean {
			return
		}
	}
	if idx == len(s.spans) {
		s.evals++
		if m := s.cur.Mean(); m < s.best.Mean {
			s.best.Mean = m
			s.best.Row = cur.Clone()
		}
		return
	}
	sp := s.spans[idx]
	spanBuf := [1]topo.Span{sp}
	// Branch 1: include the span if every covered cut stays within C-1
	// express links.
	feasible := true
	for k := sp.From; k < sp.To; k++ {
		if s.cuts[k]+1 > s.c-1 {
			feasible = false
			break
		}
	}
	if feasible {
		for k := sp.From; k < sp.To; k++ {
			s.cuts[k]++
		}
		s.cur.Update(nil, spanBuf[:])
		s.search(idx+1, cur.Add(sp))
		s.cur.Revert()
		for k := sp.From; k < sp.To; k++ {
			s.cuts[k]--
		}
	}
	// Branch 2: exclude the span. The superset loses sp (it is no longer
	// remaining, and was not chosen).
	if s.useBound {
		s.super.Update(spanBuf[:], nil)
	}
	s.search(idx+1, cur)
	if s.useBound {
		s.super.Revert()
	}
}

// allSpans lists every candidate express span on a row of n routers in
// canonical order.
func allSpans(n int) []topo.Span {
	var out []topo.Span
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			out = append(out, topo.Span{From: i, To: j})
		}
	}
	return out
}

// ExhaustiveMatrix finds the optimum by enumerating every connection matrix
// of P̃(n, C). It exists to validate the paper's claim that the
// connection-matrix space loses no useful solutions: tests assert its optimum
// matches OptimalRow's. Practical only while (n-2)·(C-1) stays small.
func ExhaustiveMatrix(n, c int, p model.Params) Result {
	m := topo.NewConnMatrix(n, c)
	bits := m.Bits()
	if bits > 26 {
		panic(fmt.Sprintf("bnb: exhaustive matrix space 2^%d too large", bits))
	}
	inc := route.NewIncremental(p.Route())
	var best Result
	var evals int64
	for code := 0; code < 1<<bits; code++ {
		for b := 0; b < bits; b++ {
			want := code&(1<<b) != 0
			layer, router := b/(n-2), b%(n-2)+1
			m.Set(layer, router, want)
		}
		row := m.Row()
		inc.Reset(row)
		mean := inc.Mean()
		evals++
		if evals == 1 || mean < best.Mean {
			best.Mean = mean
			best.Row = row.Canonical()
		}
	}
	best.Evals = evals
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
