package dnc

import (
	"os"
	"testing"
	"time"

	"explink/internal/bnb"
	"explink/internal/model"
	"explink/internal/oracle"
	"explink/internal/topo"
)

// fullGenerator is the pre-incremental reference: the same Procedure I(n, C)
// with every candidate scored by a full scratch-backed evaluation. It exists
// to pin the incremental scan bit-identical (same rows, same means, same eval
// counts) and to back the perf smoke below.
type fullGenerator struct {
	p     model.Params
	obj   func(topo.Row) float64
	evals int64
	memo  map[[2]int]Result
}

func fullInitial(n, c int, p model.Params) Result {
	rp := p.Route()
	scratch := oracle.NewScratch(rp.PerHop, rp.PerUnit)
	obj := scratch.MeanDist
	g := &fullGenerator{p: p, obj: obj, memo: make(map[[2]int]Result)}
	res := g.solve(n, c)
	res.Evals = g.evals
	return res
}

func (g *fullGenerator) solve(n, c int) Result {
	key := [2]int{n, c}
	if r, ok := g.memo[key]; ok {
		return r
	}
	var res Result
	switch {
	case c <= 1 || n <= 2:
		row := topo.MeshRow(n)
		g.evals++
		res = Result{Row: row, Mean: g.obj(row)}
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

func (g *fullGenerator) combine(n, c int) Result {
	h := n / 2
	left := g.solve(h, c-1)
	right := g.solve(n-h, c-1)
	base := topo.Row{N: n}
	base.Express = append(base.Express, left.Row.Express...)
	for _, s := range right.Row.Express {
		base.Express = append(base.Express, topo.Span{From: s.From + h, To: s.To + h})
	}
	best := base
	g.evals++
	bestMean := g.obj(base)
	for i := 0; i < h; i++ {
		for j := h; j < n; j++ {
			if j-i < 2 {
				continue
			}
			cand := base.Add(topo.Span{From: i, To: j})
			g.evals++
			if m := g.obj(cand); m < bestMean {
				bestMean = m
				best = cand
			}
		}
	}
	return Result{Row: best.Canonical(), Mean: bestMean}
}

// TestInitialBitIdenticalToFullEvaluation pins the incremental cross-link
// scan to the full-evaluation reference: same placement, bit-identical mean,
// same evaluation count (the Fig. 7 runtime unit is unchanged).
func TestInitialBitIdenticalToFullEvaluation(t *testing.T) {
	for _, tc := range []struct{ n, c int }{
		{6, 2}, {8, 3}, {8, 4}, {12, 4}, {16, 4}, {16, 8}, {7, 3}, {13, 5}, {32, 4},
	} {
		got := Initial(tc.n, tc.c, p)
		want := fullInitial(tc.n, tc.c, p)
		if !got.Row.Equal(want.Row) {
			t.Fatalf("I(%d,%d) row %v != reference %v", tc.n, tc.c, got.Row, want.Row)
		}
		if got.Mean != want.Mean {
			t.Fatalf("I(%d,%d) mean %v != reference %v (not bit-identical)", tc.n, tc.c, got.Mean, want.Mean)
		}
		if got.Evals != want.Evals {
			t.Fatalf("I(%d,%d) evals %d != reference %d", tc.n, tc.c, got.Evals, want.Evals)
		}
	}
}

// TestDnCNotSlowerThanFullEval is the CI perf smoke for the D&C scan: the
// incremental path must not lose to the full-evaluation reference. Interleaved
// best-of runs absorb scheduler noise; a 10% band absorbs the rest. Gated
// behind EXPLINK_BENCH_SMOKE so regular test runs stay timing-free.
func TestDnCNotSlowerThanFullEval(t *testing.T) {
	if os.Getenv("EXPLINK_BENCH_SMOKE") == "" {
		t.Skip("set EXPLINK_BENCH_SMOKE=1 to run the perf smoke")
	}
	const n, c = 32, 4
	bestInc, bestFull := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		Initial(n, c, p)
		if d := time.Since(t0); d < bestInc {
			bestInc = d
		}
		t0 = time.Now()
		fullInitial(n, c, p)
		if d := time.Since(t0); d < bestFull {
			bestFull = d
		}
	}
	t.Logf("I(%d,%d): incremental %v, full %v (%.2fx)", n, c, bestInc, bestFull,
		float64(bestFull)/float64(bestInc))
	if float64(bestInc) > float64(bestFull)*1.10 {
		t.Fatalf("incremental D&C slower than full eval: %v vs %v", bestInc, bestFull)
	}
}
