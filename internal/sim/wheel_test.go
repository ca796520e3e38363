package sim

import (
	"context"
	"testing"

	"explink/internal/model"
	"explink/internal/topo"
	"explink/internal/traffic"
)

// wheelCases put the longest link on both sides of the timing wheels'
// power-of-two sizing: at n = 8 and 16 the longest latency + 1 is exactly
// the wheel length, so a flit granted in cycle t is due in the slot step(t)
// has just read; at n = 9 and 17 it is one past, and the wheel doubles.
var wheelCases = []struct{ n, slots int }{{8, 8}, {9, 16}, {16, 16}, {17, 32}}

// expressTopo is an n x n network with one full-length express link in
// every row and column, so its longest link has latency n-1.
func expressTopo(n int) topo.Topology {
	return topo.Uniform("express", n, topo.NewRow(n, topo.Span{From: 0, To: n - 1}))
}

// TestWheelBoundaryZeroLoad sends zero-load packets over the longest link
// and requires their latency to match the analytic model, as
// TestZeroLoadExpressMatchesModel does for the 8-wide case.
func TestWheelBoundaryZeroLoad(t *testing.T) {
	for _, tc := range wheelCases {
		cfg := quickCfg(expressTopo(tc.n), 2, pairPattern{Src: 0, Dst: tc.n - 1}, 0.002)
		cfg.Mix = []model.PacketClass{{Name: "only", Bits: 512, Frac: 1}}
		cfg.Measure = 20000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(s.wheelMask) + 1; got != tc.slots {
			t.Fatalf("n=%d: wheel has %d slots, want %d", tc.n, got, tc.slots)
		}
		beat := 0
		s.onPacketDone = func(src, dst, flits, hops int, netLat, ideal float64) {
			if netLat < ideal {
				beat++
			}
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.MeasuredPackets == 0 || beat > 0 {
			t.Fatalf("n=%d: %d measured packets, %d faster than the zero-load model", tc.n, res.MeasuredPackets, beat)
		}
		// One hop of latency n-1: head = 3 + (n-1), then 3 stages, the
		// packet's flits and the ejection link.
		want := 3 + tc.n - 1 + 3 + s.mixFlits[0] + 1
		if res.P95Latency != want || res.AvgHops != 1 {
			t.Fatalf("n=%d: p95 latency %d hops %g, want %d and 1", tc.n, res.P95Latency, res.AvgHops, want)
		}
	}
}

// TestWheelBoundaryDrainsUnderAudit loads the same networks with uniform
// traffic under the per-cycle auditor: every flit and credit that wraps the
// wheel must come due on time, and the run must drain.
func TestWheelBoundaryDrainsUnderAudit(t *testing.T) {
	for _, tc := range wheelCases {
		cfg := quickCfg(expressTopo(tc.n), 2, traffic.UniformRandom(tc.n), 0.05)
		cfg.Warmup, cfg.Measure = 200, 1500
		cfg.Audit = true
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if !res.Drained || res.Counts.FlitsEjected != res.Counts.FlitsInjected {
			t.Fatalf("n=%d: drained=%v, %d of %d flits ejected", tc.n, res.Drained,
				res.Counts.FlitsEjected, res.Counts.FlitsInjected)
		}
		for _, ch := range s.channels {
			if ch.latency == int64(tc.n-1) && ch.flits == 0 {
				t.Fatalf("n=%d: longest link %d carried no flits", tc.n, ch.idx)
			}
		}
	}
}
