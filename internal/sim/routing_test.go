package sim

import (
	"context"
	"testing"

	"explink/internal/model"
	"explink/internal/topo"
	"explink/internal/traffic"
)

func TestO1TurnRuns(t *testing.T) {
	cfg := quickCfg(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.02)
	cfg.Routing = RoutingO1Turn
	res := mustRun(t, cfg)
	if !res.Drained || res.DeadlockSuspected {
		t.Fatalf("O1TURN run unhealthy: %v", res)
	}
	if res.Counts.PacketsInjected != res.Counts.PacketsEjected {
		t.Fatal("conservation violated under O1TURN")
	}
}

func TestO1TurnMatchesXYAtLowLoad(t *testing.T) {
	// Section 4.2: the difference between DOR and adaptive routing is
	// negligible at low loads. Both modes must agree within a few percent.
	base := quickCfg(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.02)
	xy := mustRun(t, base)
	o1cfg := base
	o1cfg.Routing = RoutingO1Turn
	o1 := mustRun(t, o1cfg)
	diff := (o1.AvgPacketLatency - xy.AvgPacketLatency) / xy.AvgPacketLatency
	if diff < -0.05 || diff > 0.05 {
		t.Fatalf("XY %.2f vs O1TURN %.2f: %.1f%% apart", xy.AvgPacketLatency, o1.AvgPacketLatency, 100*diff)
	}
}

func TestO1TurnZeroLoadPairLatency(t *testing.T) {
	// A single flow on a mesh has identical XY and YX path lengths, so the
	// zero-load latency must match DOR exactly.
	cfg := quickCfg(topo.Mesh(4), 1, pairPattern{Src: 0, Dst: 15}, 0.002)
	cfg.Routing = RoutingO1Turn
	cfg.Mix = []model.PacketClass{{Name: "only", Bits: 128, Frac: 1}}
	cfg.Measure = 20000
	res := mustRun(t, cfg)
	want := 24 + 3 + 1 + 1
	if res.P95Latency != want {
		t.Fatalf("O1TURN zero-load latency %d, want %d", res.P95Latency, want)
	}
	if res.AvgContentionPerHop > 0.02 {
		t.Fatalf("contention %.3f at zero load", res.AvgContentionPerHop)
	}
}

func TestO1TurnIdealLatencyPerClass(t *testing.T) {
	// Only row 0 has an express link, so the (0,5) -> (5,0) flow's YX path
	// (column 0, then the express hop) is shorter than its XY path (row 5,
	// then column 5): heads 28 and 40 cycles. At zero load every packet's
	// network latency must equal the ideal of its own dimension order.
	tp := topo.Mesh(6)
	tp.Rows[0] = topo.NewRow(6, topo.Span{From: 0, To: 5})
	cfg := quickCfg(tp, 2, pairPattern{Src: 5 * 6, Dst: 5}, 0.002)
	cfg.Routing = RoutingO1Turn
	cfg.Mix = []model.PacketClass{{Name: "only", Bits: 128, Frac: 1}}
	cfg.Measure = 20000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ideals := map[float64]int{}
	s.onPacketDone = func(src, dst, flits, hops int, netLat, ideal float64) {
		if netLat != ideal {
			t.Errorf("packet %d -> %d over %d hops: latency %g, ideal %g", src, dst, hops, netLat, ideal)
		}
		ideals[ideal]++
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Ideal = head + ejection stages (2) + local link (2) + flits-1 (0).
	if len(ideals) != 2 || ideals[28+4] == 0 || ideals[40+4] == 0 {
		t.Fatalf("ideal latencies %v, want both 32 (YX) and 44 (XY)", ideals)
	}
}

func TestO1TurnNoDeadlockUnderLoad(t *testing.T) {
	// The VC class partition must keep the CDG acyclic even saturated, on
	// express topologies too.
	for _, tc := range []struct {
		tp topo.Topology
		c  int
	}{
		{topo.Mesh(4), 1},
		{topo.HFB(8), 4},
	} {
		cfg := quickCfg(tc.tp, tc.c, traffic.UniformRandom(tc.tp.N()), 0.5)
		cfg.Routing = RoutingO1Turn
		cfg.Measure = 3000
		cfg.Drain = 3000
		res := mustRun(t, cfg)
		if res.DeadlockSuspected {
			t.Fatalf("%s: deadlock under O1TURN", tc.tp.Name)
		}
	}
}

func TestO1TurnRequiresTwoVCs(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	cfg.Routing = RoutingO1Turn
	cfg.VCs = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("O1TURN with one VC accepted")
	}
}

func TestO1TurnImprovesTransposeThroughput(t *testing.T) {
	// Transpose concentrates XY traffic on few columns; O1TURN's path
	// diversity is the classic fix. At a rate above XY's transpose
	// saturation, O1TURN must deliver lower latency or strictly more
	// throughput.
	if testing.Short() {
		t.Skip("throughput comparison in short mode")
	}
	base := quickCfg(topo.Mesh(8), 1, traffic.Transpose(8), 0.12)
	base.Measure = 4000
	base.Drain = 8000
	xy := mustRun(t, base)
	o1cfg := base
	o1cfg.Routing = RoutingO1Turn
	o1 := mustRun(t, o1cfg)
	if o1.ThroughputPackets <= xy.ThroughputPackets && o1.AvgPacketLatency >= xy.AvgPacketLatency {
		t.Fatalf("O1TURN no better on transpose: xy thr=%.4f lat=%.1f, o1 thr=%.4f lat=%.1f",
			xy.ThroughputPackets, xy.AvgPacketLatency, o1.ThroughputPackets, o1.AvgPacketLatency)
	}
}

func TestBypassZeroLoadLatency(t *testing.T) {
	// With bypassing, every hop of an isolated packet costs 1+L instead of
	// 3+L: the corner-to-corner 4x4 flow drops from 24 to 12 cycles of head
	// latency. End-to-end: head 12 + eject(1+... the ejection hop also
	// bypasses) — pin the measured value and its distance below the
	// non-bypass run.
	mk := func(bypass bool) Result {
		cfg := quickCfg(topo.Mesh(4), 1, pairPattern{Src: 0, Dst: 15}, 0.002)
		cfg.Mix = []model.PacketClass{{Name: "only", Bits: 128, Frac: 1}}
		cfg.PipelineBypass = bypass
		cfg.Measure = 20000
		return mustRun(t, cfg)
	}
	plain := mk(false)
	byp := mk(true)
	// 6 hops save 2 cycles each, and the ejection pipeline saves 2 more.
	wantDelta := 6*2 + 2
	if got := plain.P95Latency - byp.P95Latency; got != wantDelta {
		t.Fatalf("bypass saved %d cycles, want %d (plain %d, bypass %d)",
			got, wantDelta, plain.P95Latency, byp.P95Latency)
	}
}

func TestBypassDegradesUnderLoad(t *testing.T) {
	// The bypass only fires at idle routers, so its relative benefit must
	// shrink as load grows.
	latAt := func(rate float64, bypass bool) float64 {
		cfg := quickCfg(topo.Mesh(8), 1, traffic.UniformRandom(8), rate)
		cfg.PipelineBypass = bypass
		cfg.Measure = 3000
		return mustRun(t, cfg).AvgPacketLatency
	}
	lowGain := latAt(0.005, false) - latAt(0.005, true)
	highGain := latAt(0.15, false) - latAt(0.15, true)
	if highGain >= lowGain {
		t.Fatalf("bypass gain did not shrink with load: low %.2f, high %.2f", lowGain, highGain)
	}
}
