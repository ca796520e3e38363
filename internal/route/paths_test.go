package route

import (
	"math"
	"testing"
	"testing/quick"

	"explink/internal/stats"
	"explink/internal/topo"
)

var testParams = Params{PerHop: 3, PerUnit: 1}

// randomRow builds a random feasible row (duplicated from topo tests to stay
// within this package).
func randomRow(rng *stats.RNG, n, c int) topo.Row {
	r := topo.Row{N: n}
	attempts := rng.Intn(3 * n)
	for i := 0; i < attempts; i++ {
		from := rng.Intn(n - 2)
		maxLen := n - 1 - from
		if maxLen < 2 {
			continue
		}
		to := from + 2 + rng.Intn(maxLen-1)
		cand := r.Add(topo.Span{From: from, To: to})
		if cand.Validate(c) == nil {
			r = cand
		}
	}
	return r
}

func TestMeshRowDistances(t *testing.T) {
	rp := Compute(topo.MeshRow(8), testParams)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			d := math.Abs(float64(i - j))
			want := d * float64(testParams.PerHop+testParams.PerUnit)
			if rp.Dist[i][j] != want {
				t.Fatalf("mesh dist(%d,%d) = %g, want %g", i, j, rp.Dist[i][j], want)
			}
			if i != j {
				wantHops := int(d)
				if rp.Hops[i][j] != wantHops || rp.Units[i][j] != wantHops {
					t.Fatalf("mesh hops/units(%d,%d) = %d/%d", i, j, rp.Hops[i][j], rp.Units[i][j])
				}
			}
		}
	}
}

func TestFlatButterflyRowDistances(t *testing.T) {
	// On the fully connected row every pair is one hop of Manhattan length
	// |i-j|: latency PerHop + |i-j|·PerUnit.
	rp := Compute(topo.FlatButterflyRow(8), testParams)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			d := math.Abs(float64(i - j))
			want := float64(testParams.PerHop) + d*float64(testParams.PerUnit)
			if rp.Dist[i][j] != want {
				t.Fatalf("FB dist(%d,%d) = %g, want %g", i, j, rp.Dist[i][j], want)
			}
			if rp.Hops[i][j] != 1 {
				t.Fatalf("FB hops(%d,%d) = %d", i, j, rp.Hops[i][j])
			}
		}
	}
}

func TestExpressLinkUsedWhenBeneficial(t *testing.T) {
	// Row 0-7 with an express 0-7: latency 0->7 should be one hop, 3+7=10,
	// versus 7 hops * 4 = 28 on locals.
	row := topo.NewRow(8, topo.Span{From: 0, To: 7})
	rp := Compute(row, testParams)
	if rp.Dist[0][7] != 10 {
		t.Fatalf("dist(0,7) = %g, want 10", rp.Dist[0][7])
	}
	if rp.Next[0][7] != 7 {
		t.Fatalf("next(0,7) = %d, want 7", rp.Next[0][7])
	}
	// 0 -> 6 must NOT take the express to 7 and come back (no U-turns).
	if rp.Dist[0][6] != 6*4 {
		t.Fatalf("dist(0,6) = %g, want 24 (monotonic rule)", rp.Dist[0][6])
	}
}

func TestPathsAreMonotonic(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(13)
		row := randomRow(rng, n, 4)
		rp := Compute(row, testParams)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				p, err := rp.Path(i, j)
				if err != nil {
					t.Fatalf("path(%d,%d): %v", i, j, err)
				}
				for k := 0; k+1 < len(p); k++ {
					if (j > i && p[k+1] <= p[k]) || (j < i && p[k+1] >= p[k]) {
						t.Fatalf("non-monotonic path %v (row %v)", p, row)
					}
				}
			}
		}
	}
}

func TestNextHopConsistency(t *testing.T) {
	// Bellman consistency: Dist[i][j] == EdgeCost(i, Next) + Dist[Next][j].
	rng := stats.NewRNG(31)
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(13)
		row := randomRow(rng, n, 5)
		rp := Compute(row, testParams)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				nh := rp.Next[i][j]
				length := nh - i
				if length < 0 {
					length = -length
				}
				want := testParams.EdgeCost(length) + rp.Dist[nh][j]
				if math.Abs(rp.Dist[i][j]-want) > 1e-9 {
					t.Fatalf("inconsistent next hop at (%d,%d): %g vs %g", i, j, rp.Dist[i][j], want)
				}
			}
		}
	}
}

func TestDPAgreesWithFloydWarshall(t *testing.T) {
	// Property: the O(n²) DAG DP and the paper's double Floyd-Warshall give
	// identical distances, hop counts may differ only on cost ties.
	if err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(14)
		c := 1 + rng.Intn(6)
		row := randomRow(rng, n, c)
		dp := Compute(row, testParams)
		fw := ComputeFloydWarshall(row, testParams)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(dp.Dist[i][j]-fw.Dist[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDPAgreesWithFWOtherParams(t *testing.T) {
	p := Params{PerHop: 5, PerUnit: 2}
	rng := stats.NewRNG(77)
	for trial := 0; trial < 50; trial++ {
		row := randomRow(rng, 10, 4)
		dp := Compute(row, p)
		fw := ComputeFloydWarshall(row, p)
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				if math.Abs(dp.Dist[i][j]-fw.Dist[i][j]) > 1e-9 {
					t.Fatalf("mismatch at (%d,%d): %g vs %g (row %v)", i, j, dp.Dist[i][j], fw.Dist[i][j], row)
				}
			}
		}
	}
}

func TestMeanAndMaxDist(t *testing.T) {
	rp := Compute(topo.MeshRow(8), testParams)
	// Mean over 64 ordered pairs: sum |i-j| = 168, times 4, over 64 = 10.5.
	if math.Abs(rp.MeanDist()-10.5) > 1e-9 {
		t.Fatalf("mesh row mean = %g, want 10.5", rp.MeanDist())
	}
	if rp.MaxDist() != 28 {
		t.Fatalf("mesh row max = %g, want 28", rp.MaxDist())
	}
}

func TestExpressNeverHurts(t *testing.T) {
	// Adding an express link can only reduce (or keep) every pair distance.
	rng := stats.NewRNG(55)
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(12)
		base := randomRow(rng, n, 3)
		from := rng.Intn(n - 2)
		to := from + 2 + rng.Intn(n-from-2)
		aug := base.Add(topo.Span{From: from, To: to})
		b := Compute(base, testParams)
		a := Compute(aug, testParams)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a.Dist[i][j] > b.Dist[i][j]+1e-9 {
					t.Fatalf("adding %d-%d increased dist(%d,%d)", from, to, i, j)
				}
			}
		}
	}
}

func TestPathErrors(t *testing.T) {
	rp := Compute(topo.MeshRow(4), testParams)
	if _, err := rp.Path(-1, 2); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := rp.Path(0, 4); err == nil {
		t.Fatal("expected range error")
	}
	p, err := rp.Path(2, 2)
	if err != nil || len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestSingleRouterRow(t *testing.T) {
	rp := Compute(topo.MeshRow(1), testParams)
	if rp.Dist[0][0] != 0 || rp.MeanDist() != 0 {
		t.Fatal("singleton row must have zero latency")
	}
}
