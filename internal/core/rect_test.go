package core

import (
	"context"
	"math"
	"testing"

	"explink/internal/model"
	"explink/internal/oracle/cdg"
	"explink/internal/topo"
)

func TestSolveRectBasic(t *testing.T) {
	rs := NewRectSolver(8, 4)
	sol, err := rs.SolveRect(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Row.N != 8 || sol.Col.N != 4 {
		t.Fatalf("line lengths: row %d col %d", sol.Row.N, sol.Col.N)
	}
	tp := rs.Topology(sol)
	if err := tp.Validate(4); err != nil {
		t.Fatal(err)
	}
	if tp.NumRouters() != 32 {
		t.Fatalf("routers = %d", tp.NumRouters())
	}
	// The rectangular lemma: 2D mean head = rowMean + colMean.
	rowMean := model.RowMean(sol.Row, rs.Base.Cfg.Params)
	colMean := model.RowMean(sol.Col, rs.Base.Cfg.Params)
	if math.Abs(sol.Eval.Head-(rowMean+colMean)) > 1e-9 {
		t.Fatalf("head %g != rowMean %g + colMean %g", sol.Eval.Head, rowMean, colMean)
	}
}

func TestSolveRectBeatsRectMesh(t *testing.T) {
	rs := NewRectSolver(8, 4)
	best, all, err := rs.OptimizeRect(context.Background(), DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no solutions")
	}
	meshEval, err := rs.Base.Cfg.EvalRectTopology(topo.MeshRect(8, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Eval.Total >= meshEval.Total {
		t.Fatalf("rect optimum %.2f not below mesh %.2f", best.Eval.Total, meshEval.Total)
	}
}

func TestSolveRectSquareMatchesSquareSolver(t *testing.T) {
	rs := NewRectSolver(8, 8)
	rectSol, err := rs.SolveRect(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	sq := NewSolver(model.DefaultConfig(8))
	sqSol, err := sq.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same dimension, same algorithm: identical placements.
	if !rectSol.Row.Equal(sqSol.Row) {
		t.Fatalf("square-as-rect diverged: %v vs %v", rectSol.Row, sqSol.Row)
	}
	if math.Abs(rectSol.Eval.Total-sqSol.Eval.Total) > 1e-9 {
		t.Fatalf("evals differ: %g vs %g", rectSol.Eval.Total, sqSol.Eval.Total)
	}
	// The column placement is the reused row solve, so its work counts once.
	if rectSol.Evals != sqSol.Evals {
		t.Fatalf("square-as-rect spent %d evaluations, the row solve %d", rectSol.Evals, sqSol.Evals)
	}
}

func TestSolveRectDeadlockFree(t *testing.T) {
	rs := NewRectSolver(8, 4)
	sol, err := rs.SolveRect(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := cdg.TopologyAcyclic(rs.Topology(sol), rs.Base.Cfg.Params.Route())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("rectangular topology has a cyclic CDG")
	}
}

func TestSolveRectErrors(t *testing.T) {
	if _, err := NewRectSolver(1, 8).SolveRect(context.Background(), 2, DCSA); err == nil {
		t.Fatal("degenerate width accepted")
	}
	if _, err := NewRectSolver(8, 4).SolveRect(context.Background(), 1024, DCSA); err == nil {
		t.Fatal("bad limit accepted")
	}
	if _, err := NewRectSolver(8, 4).SolveRect(context.Background(), 2, Algorithm("nope")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveRectInitOnly(t *testing.T) {
	rs := NewRectSolver(8, 4)
	sol, err := rs.SolveRect(context.Background(), 2, InitOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Topology(sol).Validate(2); err != nil {
		t.Fatal(err)
	}
}
