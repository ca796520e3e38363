package route_test

import (
	"context"
	"sync/atomic"
	"testing"

	"explink/internal/api"
	"explink/internal/route"
	"explink/internal/stats"
)

// solveColdMix is one round of perfbench's solve-cold request mix (n, C,
// algorithm, worst-case weight), in the order sent; a pass sends four rounds,
// request i seeded with stats.MixSeed(1, i) at workload seed 1.
var solveColdMix = []struct {
	n, c  int
	algo  string
	worst float64
}{
	{8, 2, "D&C_SA", 0}, {16, 8, "D&C_SA", 0}, {8, 4, "D&C_SA", 0}, {8, 2, "D&C_SA", 0},
	{16, 2, "D&C_SA", 0}, {8, 4, "D&C_SA", 0.5}, {8, 2, "OnlySA", 0}, {16, 4, "D&C_SA", 0},
	{8, 4, "D&C_SA", 0}, {8, 8, "D&C_SA", 0}, {16, 8, "D&C_SA", 0}, {8, 2, "D&C_SA", 0},
	{8, 4, "OnlySA", 0}, {16, 2, "OnlySA", 0}, {8, 4, "D&C_SA", 0}, {8, 2, "D&C_SA", 0.5},
	{16, 8, "D&C_SA", 0.5}, {8, 4, "D&C_SA", 0}, {16, 4, "OnlySA", 0}, {8, 2, "D&C_SA", 0},
	{8, 4, "D&C_SA", 0}, {16, 8, "D&C_SA", 0}, {8, 2, "D&C_SA", 0}, {8, 4, "D&C_SA", 0},
}

// TestSolveColdRelaxedPositions counts the distance positions every
// Incremental sweep relaxes while the seed-1 solve-cold pass (four rounds of
// the mix, no placement store) solves. The count is deterministic: it
// depends only on the search trajectories, which the solve fixtures pin. A
// rejected move that threw away the sweep of the dirty state it was opened
// on, to be redone at the next sync, would raise it by about 410,000.
func TestSolveColdRelaxedPositions(t *testing.T) {
	var n atomic.Int64
	defer route.CountRelaxed(&n)()
	for i := 0; i < 4*len(solveColdMix); i++ {
		c := solveColdMix[i%len(solveColdMix)]
		seed := stats.MixSeed(1, uint64(i))
		if seed == 0 {
			seed = 1
		}
		req := api.SolveRequest{N: c.n, C: c.c, Algo: c.algo, Seed: seed, WorstWeight: c.worst}
		req.Normalize()
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := req.Solve(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	const want = 10005315
	if got := n.Load(); got != want {
		t.Fatalf("solve-cold pass relaxed %d positions, want %d", got, want)
	}
}
