package anneal

import (
	"testing"

	"explink/internal/stats"
	"explink/internal/topo"
)

func TestNaiveImproves(t *testing.T) {
	mesh := topo.MeshRow(8)
	res := MinimizeNaive(mesh, 4, rowObj, DefaultSchedule(), stats.NewRNG(3))
	if res.Obj >= rowObj(mesh) {
		t.Fatalf("naive SA failed to improve: %g", res.Obj)
	}
	if err := res.Row.Validate(4); err != nil {
		t.Fatal(err)
	}
	if res.Moves != int64(DefaultSchedule().Moves) {
		t.Fatalf("moves = %d", res.Moves)
	}
	if res.Evals+res.Invalid < res.Moves {
		t.Fatalf("accounting broken: evals %d + invalid %d < moves %d", res.Evals, res.Invalid, res.Moves)
	}
}

func TestNaiveWastesMoves(t *testing.T) {
	// The Section 4.4.2 motivation: a meaningful share of naive candidates
	// is infeasible, especially at tight link limits.
	res := MinimizeNaive(topo.MeshRow(16), 2, rowObj, DefaultSchedule(), stats.NewRNG(5))
	frac := float64(res.Invalid) / float64(res.Moves)
	if frac < 0.2 {
		t.Fatalf("only %.1f%% of naive moves infeasible; expected substantial waste", 100*frac)
	}
	if err := res.Row.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveNeverWorseThanSeed(t *testing.T) {
	seed := topo.NewRow(8, topo.Span{From: 0, To: 4}, topo.Span{From: 4, To: 7})
	seedObj := rowObj(seed)
	res := MinimizeNaive(seed, 3, rowObj, DefaultSchedule().WithMoves(2000), stats.NewRNG(7))
	if res.Obj > seedObj+1e-9 {
		t.Fatalf("naive SA lost its seed: %g > %g", res.Obj, seedObj)
	}
}

func TestNaivePanicsOnInfeasibleSeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MinimizeNaive(topo.NewRow(8, topo.Span{From: 0, To: 4}), 1, rowObj, DefaultSchedule(), stats.NewRNG(1))
}

func TestMatrixGeneratorBeatsNaiveAtTightLimits(t *testing.T) {
	// At equal move budgets the always-feasible generator should not lose:
	// every one of its moves explores, while the naive generator discards a
	// large share. Averaged over seeds to damp SA noise.
	const budget = 600
	var matrixSum, naiveSum float64
	for seed := uint64(0); seed < 5; seed++ {
		sch := DefaultSchedule().WithMoves(budget)
		m := topo.NewConnMatrix(16, 2)
		best, _ := minimize(t, m, sch, stats.NewRNG(stats.MixSeed(seed, 1)))
		matrixSum += best.Objs[0]
		nres := MinimizeNaive(topo.MeshRow(16), 2, rowObj, sch, stats.NewRNG(stats.MixSeed(seed, 2)))
		naiveSum += nres.Obj
	}
	if matrixSum > naiveSum*1.02 {
		t.Fatalf("matrix generator (%.2f avg) worse than naive (%.2f avg)", matrixSum/5, naiveSum/5)
	}
}
