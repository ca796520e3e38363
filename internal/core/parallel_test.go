package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"explink/internal/model"
)

func TestForEachIndexAggregatesErrors(t *testing.T) {
	err := forEachIndex(context.Background(), 5, 3, strconv.Itoa, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors swallowed")
	}
	for _, want := range []string{"boom 1", "boom 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error %q missing %q", err, want)
		}
	}
	if err := forEachIndex(context.Background(), 0, 4, strconv.Itoa, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Fatalf("empty index space returned %v", err)
	}
	if err := forEachIndex(context.Background(), 3, 1, strconv.Itoa, func(int) error { return nil }); err != nil {
		t.Fatalf("sequential path returned %v", err)
	}
}

func TestOptimizeParallelBitIdentical(t *testing.T) {
	// The hard determinism contract of the parallel sweep: any worker count
	// must reproduce the single-worker result byte for byte, including the
	// evaluation counts (each sub-problem has its own rngFor stream).
	for _, algo := range []Algorithm{DCSA, OnlySA} {
		seq := solver8()
		seq.Workers = 1
		seq.Sched = seq.Sched.WithMoves(2000)
		par := solver8()
		par.Workers = 8
		par.Sched = par.Sched.WithMoves(2000)

		seqBest, seqAll, err := seq.Optimize(context.Background(), algo)
		if err != nil {
			t.Fatal(err)
		}
		parBest, parAll, err := par.Optimize(context.Background(), algo)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqAll) != len(parAll) {
			t.Fatalf("%s: %d vs %d solutions", algo, len(seqAll), len(parAll))
		}
		for i := range seqAll {
			if !seqAll[i].Row.Equal(parAll[i].Row) {
				t.Fatalf("%s: C=%d placement diverged:\n%v\n%v", algo, seqAll[i].C, seqAll[i].Row, parAll[i].Row)
			}
			if seqAll[i].Eval != parAll[i].Eval {
				t.Fatalf("%s: C=%d eval diverged: %v vs %v", algo, seqAll[i].C, seqAll[i].Eval, parAll[i].Eval)
			}
			if seqAll[i].Evals != parAll[i].Evals {
				t.Fatalf("%s: C=%d eval count diverged: %d vs %d", algo, seqAll[i].C, seqAll[i].Evals, parAll[i].Evals)
			}
		}
		if !seqBest.Row.Equal(parBest.Row) || seqBest.C != parBest.C {
			t.Fatalf("%s: best diverged: %v vs %v", algo, seqBest, parBest)
		}
	}
}

func TestSolveWeightedParallelBitIdentical(t *testing.T) {
	n := 8
	w, err := WeightsFromMatrix(n, skewedTraffic(n))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) *Solver {
		s := NewSolver(model.DefaultConfig(n))
		s.Sched = s.Sched.WithMoves(1000)
		s.Workers = workers
		return s
	}
	seq, err := mk(1).SolveWeighted(context.Background(), 4, w, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mk(8).SolveWeighted(context.Background(), 4, w, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Evals != par.Evals {
		t.Fatalf("total evals diverged: %d vs %d", seq.Evals, par.Evals)
	}
	for i := 0; i < n; i++ {
		if !seq.Topology.Rows[i].Equal(par.Topology.Rows[i]) {
			t.Fatalf("row %d diverged:\n%v\n%v", i, seq.Topology.Rows[i], par.Topology.Rows[i])
		}
		if !seq.Topology.Cols[i].Equal(par.Topology.Cols[i]) {
			t.Fatalf("col %d diverged:\n%v\n%v", i, seq.Topology.Cols[i], par.Topology.Cols[i])
		}
		if seq.RowEvals[i] != par.RowEvals[i] || seq.ColEvals[i] != par.ColEvals[i] {
			t.Fatalf("line %d eval counts diverged: %d/%d vs %d/%d",
				i, seq.RowEvals[i], seq.ColEvals[i], par.RowEvals[i], par.ColEvals[i])
		}
	}
}

func TestSolveWeightedOnlySAUsesRandomizedStart(t *testing.T) {
	// Regression for the fallback bug: the OnlySA ablation's true initial
	// state is the randomized matrix, so the mesh row must never leak into
	// its output just because the mesh happens to beat an annealed-from-
	// random line. A short schedule makes weak SA results likely; the result
	// must still be a valid C-feasible topology with per-line accounting.
	n := 8
	w, err := WeightsFromMatrix(n, skewedTraffic(n))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(model.DefaultConfig(n))
	s.Sched = s.Sched.WithMoves(20)
	sol, err := s.SolveWeighted(context.Background(), 4, w, OnlySA)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Topology.Validate(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Each line spends: 1 start eval + (1 + moves) annealer queries.
		want := int64(1 + 1 + 20)
		if sol.RowEvals[i] != want || sol.ColEvals[i] != want {
			t.Fatalf("line %d evals = %d/%d, want %d", i, sol.RowEvals[i], sol.ColEvals[i], want)
		}
	}
}
