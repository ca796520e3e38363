package model_test

import (
	"context"
	"testing"

	"explink/internal/anneal"
	"explink/internal/model"
	"explink/internal/route"
	"explink/internal/stats"
	"explink/internal/topo"
)

// scratchObjective is the full-evaluation reference objective: it mirrors
// the annealer's matrix and re-routes the whole decoded row on every Eval.
type scratchObjective struct {
	score   func(topo.Row) float64
	m       *topo.ConnMatrix
	pending int
}

func (o *scratchObjective) K() int { return 1 }
func (o *scratchObjective) Init(m *topo.ConnMatrix, dst []float64) {
	o.m = m.Clone()
	dst[0] = o.score(o.m.Row())
}
func (o *scratchObjective) Flip(bit int)       { o.m.FlipAt(bit); o.pending = bit }
func (o *scratchObjective) Eval(dst []float64) { dst[0] = o.score(o.m.Row()) }
func (o *scratchObjective) Commit()            {}
func (o *scratchObjective) Revert()            { o.m.FlipAt(o.pending) }

// runPair runs the same annealing search twice — once through a
// full-evaluation route.Scratch objective, once through the move-aware
// IncObjective — from identical RNG streams, and asserts the two results are
// bit-for-bit identical: same objective, same best matrix and row, same
// eval/accept/memo accounting. This is the contract that keeps SA
// trajectories, memo behavior and PlacementStore keys unchanged by the
// incremental path.
func runPair(t *testing.T, init *topo.ConnMatrix, full func(topo.Row) float64, mo *model.IncObjective, seed uint64) {
	t.Helper()
	sch := anneal.DefaultSchedule().WithMoves(2000)
	ref := anneal.MinimizePareto(context.Background(), init, &scratchObjective{score: full},
		anneal.ParetoOpts{}, sch, stats.NewRNG(seed))
	inc := anneal.MinimizePareto(context.Background(), init, mo, anneal.ParetoOpts{}, sch, stats.NewRNG(seed))
	if len(ref.Entries) != 1 || len(inc.Entries) != 1 {
		t.Fatalf("k=1 archives hold %d and %d entries, want 1", len(ref.Entries), len(inc.Entries))
	}
	rb, ib := ref.Entries[0], inc.Entries[0]
	if rb.Objs[0] != ib.Objs[0] {
		t.Fatalf("Obj: full %v, inc %v", rb.Objs[0], ib.Objs[0])
	}
	if !rb.Matrix.Equal(ib.Matrix) {
		t.Fatalf("best matrices differ:\nfull %v\ninc  %v", rb.Matrix, ib.Matrix)
	}
	if !rb.Row.Equal(ib.Row) {
		t.Fatalf("best rows differ: full %v, inc %v", rb.Row, ib.Row)
	}
	if ref.Evals != inc.Evals || ref.Accepted != inc.Accepted || ref.Uphill != inc.Uphill ||
		ref.MemoHits != inc.MemoHits || ref.MemoMisses != inc.MemoMisses || ref.ArchivePruned != inc.ArchivePruned {
		t.Fatalf("accounting differs: full %+v, inc %+v", counters(ref), counters(inc))
	}
}

// counters strips the archive from a result for failure messages.
func counters(r anneal.ParetoResult) anneal.ParetoResult {
	r.Entries = nil
	return r
}

func randomInit(n, c int, seed uint64) *topo.ConnMatrix {
	m := topo.NewConnMatrix(n, c)
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	m.Randomize(func() bool { return rng.Bool(0.5) })
	return m
}

func TestIncObjectiveBitIdenticalMean(t *testing.T) {
	p := model.DefaultParams()
	for _, size := range []struct{ n, c int }{{4, 2}, {8, 3}, {16, 4}} {
		init := randomInit(size.n, size.c, uint64(size.n))
		scratch, rp := route.NewScratch(), p.Route()
		full := func(r topo.Row) float64 { return scratch.MeanDist(r, rp) }
		runPair(t, init, full, model.NewIncObjective(p), 42+uint64(size.n))
	}
}

func TestIncObjectiveBitIdenticalWeighted(t *testing.T) {
	p := model.DefaultParams()
	for _, size := range []struct{ n, c int }{{8, 3}, {16, 4}} {
		w := make([][]float64, size.n)
		for i := range w {
			w[i] = make([]float64, size.n)
			for j := range w[i] {
				w[i][j] = float64((i*31+j*17)%9) * 0.5
			}
		}
		init := randomInit(size.n, size.c, 7*uint64(size.n))
		scratch, rp := route.NewScratch(), p.Route()
		full := func(r topo.Row) float64 { return scratch.WeightedMean(r, rp, w) }
		runPair(t, init, full, model.NewIncObjective(p).WithWeights(w), 99+uint64(size.n))
	}
}

func TestIncObjectiveBitIdenticalWorstBlend(t *testing.T) {
	p := model.DefaultParams()
	for _, blend := range []float64{0.25, 1} {
		scratch := route.NewScratch()
		rp := p.Route()
		obj := func(r topo.Row) float64 {
			mean, max := scratch.MeanMax(r, rp)
			return (1-blend)*mean + blend*max
		}
		init := randomInit(12, 3, uint64(blend*8))
		runPair(t, init, obj, model.NewIncObjective(p).WithWorstBlend(blend), 7)
	}
}

func TestIncObjectiveProtocolPanics(t *testing.T) {
	p := model.DefaultParams()
	for name, fn := range map[string]func(o *model.IncObjective){
		"flip twice":          func(o *model.IncObjective) { o.Flip(0); o.Flip(1) },
		"commit without flip": func(o *model.IncObjective) { o.Commit() },
		"revert without flip": func(o *model.IncObjective) { o.Revert() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			o := model.NewIncObjective(p)
			o.Init(topo.NewConnMatrix(8, 3), make([]float64, 1))
			fn(o)
		}()
	}
}

// TestIncObjectiveDoesNotRetainInit pins the Init ownership contract: mutating
// the annealer's matrix after Init must not disturb the objective's tracking.
func TestIncObjectiveDoesNotRetainInit(t *testing.T) {
	p := model.DefaultParams()
	m := topo.NewConnMatrix(8, 3)
	o := model.NewIncObjective(p)
	var base, got [1]float64
	o.Init(m, base[:])
	m.FlipAt(0) // annealer-side mutation, not announced via Flip
	if o.Eval(got[:]); got != base {
		t.Fatalf("Eval after external mutation = %v, want %v (matrix retained?)", got[0], base[0])
	}
}
