package route

import (
	"math"
	"testing"

	"explink/internal/stats"
	"explink/internal/topo"
)

func TestFastPathAgreesWithFloydWarshall(t *testing.T) {
	// The mean-only fast path must agree with the paper's double
	// Floyd-Warshall construction on randomized rows.
	rng := stats.NewRNG(202)
	s := newScratch(testParams)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(14)
		c := 1 + rng.Intn(6)
		row := randomRow(rng, n, c)
		fwMean, fwMax := tableMeanMax(ComputeFloydWarshall(row, testParams))
		mean, max := s.MeanMax(row)
		if math.Abs(mean-fwMean) > 1e-9 {
			t.Fatalf("trial %d: mean %g vs FW %g (row %v)", trial, mean, fwMean, row)
		}
		if math.Abs(max-fwMax) > 1e-9 {
			t.Fatalf("trial %d: max %g vs FW %g (row %v)", trial, max, fwMax, row)
		}
	}
}

func TestFastPathBitIdenticalToTables(t *testing.T) {
	// Stronger than the FW tolerance check: the fast paths accumulate in the
	// same pair order as a fold over the Compute table, so the floats must be
	// exactly equal — the SA determinism guarantees rely on this. One
	// Incremental is reset across rows of varying sizes, the way one-shot
	// scoring reuses it.
	rng := stats.NewRNG(303)
	s := newScratch(testParams)
	inc := NewIncremental(testParams)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(14)
		row := randomRow(rng, n, 4)
		tMean, tMax := tableMeanMax(Compute(row, testParams))
		mean, max := s.MeanMax(row)
		if mean != tMean || max != tMax {
			t.Fatalf("trial %d: fast path (%v, %v) != tables (%v, %v)",
				trial, mean, max, tMean, tMax)
		}
		inc.Reset(row)
		if got := inc.Mean(); got != mean {
			t.Fatalf("reset Incremental Mean %v != scratch %v", got, mean)
		}
		im, ix := inc.MeanMax()
		if im != mean || ix != max {
			t.Fatalf("reset Incremental MeanMax (%v, %v) != scratch (%v, %v)", im, ix, mean, max)
		}
	}
}

func TestWeightedMeanMatchesTables(t *testing.T) {
	rng := stats.NewRNG(404)
	s := newScratch(testParams)
	inc := NewIncremental(testParams)
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(14)
		row := randomRow(rng, n, 4)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				if i != j && rng.Bool(0.7) {
					w[i][j] = rng.Float64() * 10
				}
			}
		}
		rp := Compute(row, testParams)
		var num, den float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				num += w[i][j] * rp.Dist[i][j]
				den += w[i][j]
			}
		}
		want, _ := tableMeanMax(rp)
		if den != 0 {
			want = num / den
		}
		if got := s.WeightedMean(row, w); got != want {
			t.Fatalf("trial %d: weighted mean %v, want %v", trial, got, want)
		}
		inc.Reset(row)
		if got := inc.WeightedMean(w); got != want {
			t.Fatalf("trial %d: reset Incremental weighted mean %v, want %v", trial, got, want)
		}
	}
}

func TestWeightedMeanFallbacks(t *testing.T) {
	row := topo.NewRow(8, topo.Span{From: 0, To: 4})
	s := newScratch(testParams)
	mean := s.MeanDist(row)
	if got := s.WeightedMean(row, nil); got != mean {
		t.Fatalf("nil weights: %v, want uniform mean %v", got, mean)
	}
	zero := make([][]float64, 8)
	for i := range zero {
		zero[i] = make([]float64, 8)
	}
	if got := s.WeightedMean(row, zero); got != mean {
		t.Fatalf("all-zero weights: %v, want uniform mean %v", got, mean)
	}
}

func TestScratchAllocationFree(t *testing.T) {
	row := topo.FlatButterflyRow(16)
	s := newScratch(testParams)
	s.MeanDist(row) // warm the buffers
	if allocs := testing.AllocsPerRun(100, func() {
		s.MeanMax(row)
	}); allocs != 0 {
		t.Fatalf("MeanMax allocates %.1f times per run", allocs)
	}
}

func TestScratchSingletonAndMesh(t *testing.T) {
	s := newScratch(testParams)
	if mean, max := s.MeanMax(topo.MeshRow(1)); mean != 0 || max != 0 {
		t.Fatalf("singleton row: mean %v max %v", mean, max)
	}
	mean, max := s.MeanMax(topo.MeshRow(8))
	if math.Abs(mean-10.5) > 1e-9 || max != 28 {
		t.Fatalf("mesh row: mean %v max %v, want 10.5 / 28", mean, max)
	}
}
