package bnb

import (
	"os"
	"testing"
	"time"

	"explink/internal/model"
	"explink/internal/oracle"
	"explink/internal/topo"
)

// fullSearcher is the pre-incremental reference: the same branch and bound
// with every bound and leaf scored by a full scratch-backed evaluation. It
// pins the two-evaluator DFS bit-identical and backs the perf smoke below.
type fullSearcher struct {
	n, c     int
	obj      func(topo.Row) float64
	spans    []topo.Span
	cuts     []int
	best     Result
	evals    int64
	useBound bool
}

func fullOptimalRow(n, c int, p model.Params, useBound bool) Result {
	mesh := topo.MeshRow(n)
	rp := p.Route()
	scratch := oracle.NewScratch(rp.PerHop, rp.PerUnit)
	obj := scratch.MeanDist
	st := &fullSearcher{n: n, c: c, obj: obj, useBound: useBound}
	st.spans = allSpans(n)
	st.cuts = make([]int, maxInt(n-1, 0))
	st.best = Result{Row: mesh, Mean: st.obj(mesh)}
	st.evals = 1
	if c > 1 {
		st.search(0, topo.Row{N: n})
	}
	st.best.Evals = st.evals
	st.best.Row = st.best.Row.Canonical()
	return st.best
}

func (s *fullSearcher) eval(r topo.Row) float64 {
	s.evals++
	return s.obj(r)
}

func (s *fullSearcher) search(idx int, cur topo.Row) {
	if s.useBound {
		super := cur.Clone()
		super.Express = append(super.Express, s.spans[idx:]...)
		if s.eval(super) >= s.best.Mean {
			return
		}
	}
	if idx == len(s.spans) {
		if m := s.eval(cur); m < s.best.Mean {
			s.best.Mean = m
			s.best.Row = cur.Clone()
		}
		return
	}
	sp := s.spans[idx]
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
		s.search(idx+1, cur.Add(sp))
		for k := sp.From; k < sp.To; k++ {
			s.cuts[k]--
		}
	}
	s.search(idx+1, cur)
}

// TestOptimalRowBitIdenticalToFullEvaluation pins the incremental DFS to the
// full-evaluation reference: identical optimum, bit-identical mean, identical
// evaluation count — for both the bounded search and the feasibility-only
// exhaustive variant.
func TestOptimalRowBitIdenticalToFullEvaluation(t *testing.T) {
	p := model.DefaultParams()
	for _, tc := range []struct{ n, c int }{
		{4, 2}, {4, 4}, {5, 3}, {6, 2}, {6, 3}, {7, 2}, {8, 2},
	} {
		for _, useBound := range []bool{true, false} {
			got := optimalRow(tc.n, tc.c, p, useBound)
			want := fullOptimalRow(tc.n, tc.c, p, useBound)
			if !got.Row.Equal(want.Row) {
				t.Fatalf("P(%d,%d) bound=%v: row %v != reference %v", tc.n, tc.c, useBound, got.Row, want.Row)
			}
			if got.Mean != want.Mean {
				t.Fatalf("P(%d,%d) bound=%v: mean %v != reference %v (not bit-identical)",
					tc.n, tc.c, useBound, got.Mean, want.Mean)
			}
			if got.Evals != want.Evals {
				t.Fatalf("P(%d,%d) bound=%v: evals %d != reference %d", tc.n, tc.c, useBound, got.Evals, want.Evals)
			}
		}
	}
}

// TestBnBNotSlowerThanFullEval is the CI perf smoke for branch and bound:
// the two-evaluator incremental DFS must not lose to the full-evaluation
// reference. Gated behind EXPLINK_BENCH_SMOKE like the other perf smokes.
func TestBnBNotSlowerThanFullEval(t *testing.T) {
	if os.Getenv("EXPLINK_BENCH_SMOKE") == "" {
		t.Skip("set EXPLINK_BENCH_SMOKE=1 to run the perf smoke")
	}
	p := model.DefaultParams()
	const n, c = 7, 3
	bestInc, bestFull := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		OptimalRow(n, c, p)
		if d := time.Since(t0); d < bestInc {
			bestInc = d
		}
		t0 = time.Now()
		fullOptimalRow(n, c, p, true)
		if d := time.Since(t0); d < bestFull {
			bestFull = d
		}
	}
	t.Logf("P(%d,%d): incremental %v, full %v (%.2fx)", n, c, bestInc, bestFull,
		float64(bestFull)/float64(bestInc))
	if float64(bestInc) > float64(bestFull)*1.10 {
		t.Fatalf("incremental BnB slower than full eval: %v vs %v", bestInc, bestFull)
	}
}
