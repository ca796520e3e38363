package core

import (
	"context"
	"fmt"
	"testing"

	"explink/internal/dnc"
	"explink/internal/model"
)

// BenchmarkSolveRow times the end-to-end P̃(n, C) solve (D&C initial solution
// plus the full default SA schedule) that Optimize runs once per feasible link
// limit — the solver-side hot path perfbench's solve-cold drives. No placement
// store is attached, so every iteration pays the real search.
func BenchmarkSolveRow(b *testing.B) {
	for _, size := range []struct{ n, c int }{{8, 3}, {16, 4}, {32, 4}} {
		b.Run(fmt.Sprintf("dcsa/n%d_C%d", size.n, size.c), func(b *testing.B) {
			s := NewSolver(model.DefaultConfig(size.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.SolveRow(context.Background(), size.c, DCSA); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDnC times the divide-and-conquer initial-solution generator alone:
// its cost is dominated by the O(n²) single-cross-link scan per combine step,
// each candidate of which differs from the base placement by exactly one span.
func BenchmarkDnC(b *testing.B) {
	for _, size := range []struct{ n, c int }{{16, 4}, {32, 4}, {64, 4}} {
		b.Run(fmt.Sprintf("n%d_C%d", size.n, size.c), func(b *testing.B) {
			p := model.DefaultParams()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dnc.Initial(size.n, size.c, p)
			}
		})
	}
}

// BenchmarkSolveWeighted times one weighted line solve (the SolveWeighted
// unit of work) against a skewed traffic matrix, covering the weighted
// objective variant of the hot path.
func BenchmarkSolveWeighted(b *testing.B) {
	const n, c = 16, 4
	s := NewSolver(model.DefaultConfig(n))
	gamma := make([][]float64, n*n)
	for i := range gamma {
		gamma[i] = make([]float64, n*n)
		for j := range gamma[i] {
			if i != j {
				gamma[i][j] = float64((i*31+j*17)%7) + 1
			}
		}
	}
	w, err := WeightsFromMatrix(n, gamma)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lp := &lineProblem{kind: "line", c: c, algo: DCSA, w: w.RowW[3], line: 3}
		if _, _, err := s.solve(context.Background(), lp, nil); err != nil {
			b.Fatal(err)
		}
	}
}
