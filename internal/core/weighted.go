package core

import (
	"context"
	"fmt"

	"explink/internal/model"
	"explink/internal/topo"
)

// This file implements the application-specific design of Section 5.6.4:
// when the traffic matrix γ is known, the head-latency objective becomes
// Σ γij·L_D(i,j) / Σ γij, which still decomposes into independent row and
// column problems — but each row and column now has its own weights, so
// P̃(n, C) is solved per line instead of once.

// TrafficWeights are the per-line pairwise weights derived from a node-level
// traffic matrix under XY routing.
type TrafficWeights struct {
	N    int
	RowW [][][]float64 // RowW[y][a][b]: traffic entering row y at column a bound for column b
	ColW [][][]float64 // ColW[x][ya][yb]: traffic turning into column x at row ya bound for row yb
}

// WeightsFromMatrix decomposes a node-to-node traffic matrix gamma (indexed
// by node id, gamma[src][dst] >= 0) into per-row and per-column pair weights.
// Under XY routing a packet from (sx, sy) to (dx, dy) traverses row sy from
// column sx to dx, then column dx from row sy to dy.
func WeightsFromMatrix(n int, gamma [][]float64) (TrafficWeights, error) {
	nn := n * n
	if len(gamma) != nn {
		return TrafficWeights{}, fmt.Errorf("core: traffic matrix is %d rows, want %d", len(gamma), nn)
	}
	w := TrafficWeights{N: n, RowW: zero3(n), ColW: zero3(n)}
	for src := 0; src < nn; src++ {
		if len(gamma[src]) != nn {
			return TrafficWeights{}, fmt.Errorf("core: traffic row %d has %d cols, want %d", src, len(gamma[src]), nn)
		}
		sx, sy := src%n, src/n
		for dst := 0; dst < nn; dst++ {
			g := gamma[src][dst]
			if g == 0 || src == dst {
				continue
			}
			if g < 0 {
				return TrafficWeights{}, fmt.Errorf("core: negative traffic %g at (%d,%d)", g, src, dst)
			}
			dx, dy := dst%n, dst/n
			if sx != dx {
				w.RowW[sy][sx][dx] += g
			}
			if sy != dy {
				w.ColW[dx][sy][dy] += g
			}
		}
	}
	return w, nil
}

func zero3(n int) [][][]float64 {
	out := make([][][]float64, n)
	for i := range out {
		out[i] = make([][]float64, n)
		for j := range out[i] {
			out[i][j] = make([]float64, n)
		}
	}
	return out
}

// WeightedSolution is the outcome of the application-specific flow: the
// per-line optimized (generally non-uniform) topology plus the Fig. 7-style
// evaluation accounting that SolveRow reports for the unweighted problem.
type WeightedSolution struct {
	Topology topo.Topology
	RowEvals []int64 // placement evaluations spent on each row line
	ColEvals []int64 // placement evaluations spent on each column line
	Evals    int64   // total across all 2n lines
}

// SolveWeighted optimizes every row and column against its own traffic
// weights at link limit c. Lines with no traffic at all keep the unweighted
// solution. The 2n line problems are independent (each has its own rngFor
// salt) and run on a worker pool bounded by s.Workers, so the result is
// bit-identical for any worker count; on failure all per-line errors are
// aggregated into the returned error. Cancelling ctx fails every unfinished
// line with runctl.ErrCancelled.
func (s *Solver) SolveWeighted(ctx context.Context, c int, w TrafficWeights, algo Algorithm) (WeightedSolution, error) {
	n := s.Cfg.N
	if w.N != n {
		return WeightedSolution{}, fmt.Errorf("core: weights for n=%d on solver n=%d", w.N, n)
	}
	if _, err := s.Cfg.BW.Width(c); err != nil {
		return WeightedSolution{}, err
	}
	sol := WeightedSolution{
		Topology: topo.Topology{Name: fmt.Sprintf("AppSpec(C=%d)", c), W: n, H: n,
			Rows: make([]topo.Row, n), Cols: make([]topo.Row, n)},
		RowEvals: make([]int64, n),
		ColEvals: make([]int64, n),
	}
	err := forEachIndex(ctx, 2*n, s.Workers, func(i int) error {
		name, x, lines, out, evals := "row", i, w.RowW, sol.Topology.Rows, sol.RowEvals
		if i >= n {
			name, x, lines, out, evals = "col", i-n, w.ColW, sol.Topology.Cols, sol.ColEvals
		}
		e, ev, err := s.solve(ctx, &lineProblem{kind: "line", c: c, algo: algo, w: lines[x], line: int64(i)}, nil)
		if err != nil {
			return fmt.Errorf("core: %s %d: %w", name, x, err)
		}
		out[x], evals[x] = e[0].Row, ev
		return nil
	})
	if err != nil {
		return WeightedSolution{}, err
	}
	for i := 0; i < n; i++ {
		sol.Evals += sol.RowEvals[i] + sol.ColEvals[i]
	}
	return sol, nil
}

// WeightedLatency scores a topology against a node-level traffic matrix:
// the γ-weighted mean of pairwise head latencies plus the serialization
// latency at the width implied by c. It is the application-specific analogue
// of Config.EvalTopology.
func WeightedLatency(cfg model.Config, t topo.Topology, c int, gamma [][]float64) (model.Eval, error) {
	width, err := cfg.BW.Width(c)
	if err != nil {
		return model.Eval{}, err
	}
	if err := t.Validate(c); err != nil {
		return model.Eval{}, err
	}
	tp := model.ComputeTopoPaths(t, cfg.Params)
	nn := t.NumRouters()
	var num, den float64
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			if src == dst {
				continue
			}
			g := gamma[src][dst]
			if g == 0 {
				continue
			}
			num += g * tp.PairHead(src, dst)
			den += g
		}
	}
	head := 0.0
	if den > 0 {
		head = num / den
	}
	ser := model.Serialization(cfg.Mix, width)
	return model.Eval{C: c, Width: width, Head: head, Ser: ser, Total: head + ser}, nil
}
