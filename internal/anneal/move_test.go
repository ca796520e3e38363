package anneal

import (
	"context"
	"os"
	"testing"
	"time"

	"explink/internal/model"
	"explink/internal/route"
	"explink/internal/stats"
	"explink/internal/topo"
)

// TestMinimizeMoveResultConsistency pins the recycled best-state buffers:
// the returned Row must decode the returned Matrix, and the result must not
// alias the caller's initial matrix.
func TestMinimizeMoveResultConsistency(t *testing.T) {
	init := topo.NewConnMatrix(12, 4)
	rng := stats.NewRNG(3)
	init.Randomize(func() bool { return rng.Bool(0.5) })
	snapshot := init.Clone()
	best, _ := minimize(t, init, DefaultSchedule().WithMoves(500), rng)
	if !init.Equal(snapshot) {
		t.Fatal("the search mutated the initial matrix")
	}
	if !best.Row.Equal(best.Matrix.Row()) {
		t.Fatalf("Row %v does not decode Matrix %v", best.Row, best.Matrix)
	}
	best.Matrix.FlipAt(0)
	if !init.Equal(snapshot) {
		t.Fatal("result matrix aliases the initial matrix")
	}
}

// TestMinimizeMoveProtocolOrder drives the move loop with a recording
// objective and checks the documented call protocol: Init once, then per move
// exactly one Flip followed by at most one Eval and exactly one Commit or
// Revert — the contract incremental implementations rely on to stay in step.
func TestMinimizeMoveProtocolOrder(t *testing.T) {
	rec := &recordingObjective{obj: rowObj, t: t}
	init := topo.NewConnMatrix(8, 3)
	rng := stats.NewRNG(9)
	init.Randomize(func() bool { return rng.Bool(0.5) })
	res := MinimizePareto(context.Background(), init, rec, ParetoOpts{}, DefaultSchedule().WithMoves(300), rng)
	if rec.open {
		t.Fatal("search ended with an open move")
	}
	if rec.inits != 1 {
		t.Fatalf("Init called %d times", rec.inits)
	}
	if rec.flips != rec.commits+rec.reverts {
		t.Fatalf("flips %d != commits %d + reverts %d", rec.flips, rec.commits, rec.reverts)
	}
	if int64(rec.evals)+1 != res.MemoMisses {
		t.Fatalf("evals %d+1 != memo misses %d", rec.evals, res.MemoMisses)
	}
	if int64(rec.commits) != res.Accepted {
		t.Fatalf("commits %d != accepted %d", rec.commits, res.Accepted)
	}
}

// recordingObjective mirrors the annealer's matrix like a real incremental
// objective (so values stay correct) while asserting protocol order.
type recordingObjective struct {
	obj                                   func(topo.Row) float64
	t                                     *testing.T
	m                                     *topo.ConnMatrix
	last                                  int
	open                                  bool
	inits, flips, evals, commits, reverts int
}

func (r *recordingObjective) K() int { return 1 }

func (r *recordingObjective) Init(m *topo.ConnMatrix, dst []float64) {
	r.inits++
	r.m = m.Clone()
	dst[0] = r.obj(r.m.Row())
}

func (r *recordingObjective) Flip(bit int) {
	if r.open {
		r.t.Fatal("Flip with a move already open")
	}
	r.open = true
	r.flips++
	r.last = bit
	r.m.FlipAt(bit)
}

func (r *recordingObjective) Eval(dst []float64) {
	if !r.open {
		r.t.Fatal("Eval outside a move")
	}
	r.evals++
	dst[0] = r.obj(r.m.Row())
}

func (r *recordingObjective) Commit() {
	if !r.open {
		r.t.Fatal("Commit without an open move")
	}
	r.open = false
	r.commits++
}

func (r *recordingObjective) Revert() {
	if !r.open {
		r.t.Fatal("Revert without an open move")
	}
	r.open = false
	r.reverts++
	r.m.FlipAt(r.last)
}

// scratchObjective is the full-evaluation reference objective: it mirrors
// the annealer's matrix and re-routes the whole decoded row through a
// route.Scratch on every Eval.
type scratchObjective struct {
	s       *route.Scratch
	rp      route.Params
	m       *topo.ConnMatrix
	pending int
}

func newScratchObjective(p model.Params) *scratchObjective {
	return &scratchObjective{s: route.NewScratch(), rp: p.Route()}
}

func (o *scratchObjective) K() int { return 1 }
func (o *scratchObjective) Init(m *topo.ConnMatrix, dst []float64) {
	o.m = m.Clone()
	o.Eval(dst)
}
func (o *scratchObjective) Flip(bit int)       { o.m.FlipAt(bit); o.pending = bit }
func (o *scratchObjective) Eval(dst []float64) { dst[0] = o.s.MeanDist(o.m.Row(), o.rp) }
func (o *scratchObjective) Commit()            {}
func (o *scratchObjective) Revert()            { o.m.FlipAt(o.pending) }

// TestSANotSlowerThanFull is the CI perf smoke for the annealing hot path:
// a full default schedule through the incremental objective must not lose to
// the full-evaluation objective. Gated behind EXPLINK_BENCH_SMOKE.
func TestSANotSlowerThanFull(t *testing.T) {
	if os.Getenv("EXPLINK_BENCH_SMOKE") == "" {
		t.Skip("set EXPLINK_BENCH_SMOKE=1 to run the perf smoke")
	}
	const n, c = 16, 4
	run := func(incremental bool) time.Duration {
		m := topo.NewConnMatrix(n, c)
		rng := stats.NewRNG(1)
		m.Randomize(func() bool { return rng.Bool(0.5) })
		var obj VectorMoveObjective = newScratchObjective(p)
		if incremental {
			obj = model.NewIncObjective(p)
		}
		t0 := time.Now()
		MinimizePareto(context.Background(), m, obj, ParetoOpts{}, DefaultSchedule(), rng)
		return time.Since(t0)
	}
	bestInc, bestFull := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		if d := run(true); d < bestInc {
			bestInc = d
		}
		if d := run(false); d < bestFull {
			bestFull = d
		}
	}
	t.Logf("SA n=%d C=%d: incremental %v, full %v (%.2fx)", n, c, bestInc, bestFull,
		float64(bestFull)/float64(bestInc))
	if float64(bestInc) > float64(bestFull)*1.10 {
		t.Fatalf("incremental SA slower than full eval: %v vs %v", bestInc, bestFull)
	}
}
