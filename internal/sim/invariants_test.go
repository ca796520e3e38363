package sim

import (
	"context"
	"testing"

	"explink/internal/stats"
	"explink/internal/topo"
	"explink/internal/traffic"
)

// randomFeasibleRow builds a random placement within link limit c (mirrors
// the helper in the route tests).
func randomFeasibleRow(rng *stats.RNG, n, c int) topo.Row {
	r := topo.Row{N: n}
	for i := 0; i < 2*n; i++ {
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

// TestRandomPlacementInvariants is the simulator's broad property test:
// for random feasible placements under random loads, every run must conserve
// flits, stay deadlock-free, and never deliver a measured packet faster than
// the zero-load pipeline allows.
func TestRandomPlacementInvariants(t *testing.T) {
	rng := stats.NewRNG(2024)
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(3)
		c := 2 + rng.Intn(3)
		row := randomFeasibleRow(rng, n, c)
		tp := topo.Uniform("rand", n, row)
		rate := 0.005 + rng.Float64()*0.05
		cfg := quickCfg(tp, c, traffic.UniformRandom(n), rate)
		cfg.Measure = 2000
		cfg.Seed = rng.Uint64()
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, row, err)
		}
		fasterThanLight := 0
		s.onPacketDone = func(src, dst, flits, hops int, netLat, ideal float64) {
			if netLat < ideal-1e-9 {
				fasterThanLight++
			}
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.DeadlockSuspected {
			t.Fatalf("trial %d: deadlock on %v", trial, row)
		}
		if fasterThanLight > 0 {
			t.Fatalf("trial %d: %d packets beat the zero-load bound on %v", trial, fasterThanLight, row)
		}
		if res.Drained && res.Counts.FlitsInjected != res.Counts.FlitsEjected {
			t.Fatalf("trial %d: conservation violated", trial)
		}
		if res.Drained && s.inFlightFlits != 0 {
			t.Fatalf("trial %d: drained with %d flits in flight", trial, s.inFlightFlits)
		}
	}
}

// TestRandomPlacementZeroLoadMatchesModel sweeps random placements at
// near-zero load and requires the measured mean network latency to sit on
// the analytic prediction.
func TestRandomPlacementZeroLoadMatchesModel(t *testing.T) {
	rng := stats.NewRNG(777)
	for trial := 0; trial < 4; trial++ {
		n := 6 + rng.Intn(3)
		c := 2 + rng.Intn(3)
		row := randomFeasibleRow(rng, n, c)
		tp := topo.Uniform("rand", n, row)
		cfg := quickCfg(tp, c, traffic.UniformRandom(n), 0.003)
		cfg.Seed = rng.Uint64()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sumIdeal, count float64
		s.onPacketDone = func(src, dst, flits, hops int, netLat, ideal float64) {
			sumIdeal += ideal
			count++
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if count == 0 {
			t.Fatalf("trial %d: no packets", trial)
		}
		meanIdeal := sumIdeal / count
		if res.AvgNetLatency < meanIdeal-1e-9 || res.AvgNetLatency > meanIdeal+1.5 {
			t.Fatalf("trial %d (%v): measured %.2f vs ideal %.2f", trial, row, res.AvgNetLatency, meanIdeal)
		}
	}
}
