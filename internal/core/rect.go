package core

import (
	"context"
	"fmt"

	"explink/internal/model"
	"explink/internal/topo"
)

// This file extends the paper's square formulation to rectangular W x H
// networks. The 2D->1D lemma carries over unchanged: with dimension-order
// routing, horizontal traffic sees only the row placement (W routers) and
// vertical traffic only the column placement (H routers), so the two
// one-dimensional problems P̃(W, C) and P̃(H, C) are solved independently and
// the average head latency is rowMean + colMean.

// RectSolution is an optimized rectangular design.
type RectSolution struct {
	W, H  int
	C     int
	Row   topo.Row // X placement, W routers
	Col   topo.Row // Y placement, H routers
	Eval  model.Eval
	Evals int64
}

// RectSolver optimizes rectangular networks. Timing, packet mix and
// bandwidth come from Base (whose N is ignored).
type RectSolver struct {
	W, H int
	Base *Solver
}

// NewRectSolver returns a solver for a W x H network with the paper's
// defaults.
func NewRectSolver(w, h int) *RectSolver {
	return &RectSolver{W: w, H: h, Base: NewSolver(model.DefaultConfig(max(w, h)))}
}

// SolveRect solves both dimensions at link limit c. Each dimension is a row
// solve on its own line length, with the seed offset per dimension so the
// two draw distinct streams. Cancellation follows SolveRow: a cut-short line
// fails with runctl.ErrCancelled.
func (rs *RectSolver) SolveRect(ctx context.Context, c int, algo Algorithm) (RectSolution, error) {
	if rs.W < 2 || rs.H < 2 {
		return RectSolution{}, fmt.Errorf("core: rectangular network needs both sides >= 2, got %dx%d", rs.W, rs.H)
	}
	if _, err := rs.Base.Cfg.BW.Width(c); err != nil {
		return RectSolution{}, err
	}
	line := func(n int, salt uint64) (RowSolution, error) {
		s := *rs.Base // shallow copy so the per-line config tweak stays local
		s.Cfg.N, s.Seed = n, rs.Base.Seed+salt
		return s.SolveRow(ctx, c, algo)
	}
	row, err := line(rs.W, 0)
	if err != nil {
		return RectSolution{}, fmt.Errorf("core: rows: %w", err)
	}
	col, evals := row, row.Evals // a square network reuses the row solve
	if rs.H != rs.W {
		if col, err = line(rs.H, 1); err != nil {
			return RectSolution{}, fmt.Errorf("core: cols: %w", err)
		}
		evals += col.Evals
	}
	t := topo.Rect(fmt.Sprintf("%s(%dx%d,C=%d)", algo, rs.W, rs.H, c), rs.W, rs.H, row.Row, col.Row)
	ev, err := rs.Base.Cfg.EvalRectTopology(t, c)
	if err != nil {
		return RectSolution{}, err
	}
	return RectSolution{W: rs.W, H: rs.H, C: c, Row: row.Row, Col: col.Row, Eval: ev, Evals: evals}, nil
}

// OptimizeRect sweeps every feasible link limit and returns the best design
// plus all per-C solutions.
func (rs *RectSolver) OptimizeRect(ctx context.Context, algo Algorithm) (RectSolution, []RectSolution, error) {
	// The binding cross-section is on the longer dimension; sweep its limits.
	limits := rs.Base.Cfg.BW.FeasibleLimits(topo.LinkLimits(max(rs.W, rs.H)))
	if len(limits) == 0 {
		return RectSolution{}, nil, fmt.Errorf("core: no feasible link limits for %dx%d", rs.W, rs.H)
	}
	var all []RectSolution
	var best RectSolution
	for i, c := range limits {
		sol, err := rs.SolveRect(ctx, c, algo)
		if err != nil {
			return RectSolution{}, nil, err
		}
		all = append(all, sol)
		if i == 0 || sol.Eval.Total < best.Eval.Total {
			best = sol
		}
	}
	return best, all, nil
}

// Topology expands a rectangular solution into its full network.
func (rs *RectSolver) Topology(sol RectSolution) topo.Topology {
	return topo.Rect(fmt.Sprintf("D&C_SA(%dx%d,C=%d)", sol.W, sol.H, sol.C),
		sol.W, sol.H, sol.Row, sol.Col)
}
