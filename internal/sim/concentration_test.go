package sim

import (
	"context"
	"testing"

	"explink/internal/model"
	"explink/internal/topo"
	"explink/internal/traffic"
)

func TestConcentrationZeroLoadRemote(t *testing.T) {
	// 4x4 mesh with 2 cores per router: core 0 (router 0) to core 31
	// (router 15). Router path unchanged by concentration: head 24, so
	// latency = 24 + 3 + flits + 1.
	cfg := quickCfg(topo.Mesh(4), 1, pairPattern{Src: 0, Dst: 31}, 0.002)
	cfg.Concentration = 2
	cfg.Mix = []model.PacketClass{{Name: "only", Bits: 128, Frac: 1}}
	cfg.Measure = 20000
	res := mustRun(t, cfg)
	want := 24 + 3 + 1 + 1
	if res.P95Latency != want {
		t.Fatalf("remote latency %d, want %d (%v)", res.P95Latency, want, res)
	}
}

func TestConcentrationSameRouterCores(t *testing.T) {
	// Cores 0 and 1 share router 0: the packet only crosses that router's
	// switch — zero network hops, latency = 0 + 3 + flits + 1.
	cfg := quickCfg(topo.Mesh(4), 1, pairPattern{Src: 0, Dst: 1}, 0.002)
	cfg.Concentration = 2
	cfg.Mix = []model.PacketClass{{Name: "only", Bits: 128, Frac: 1}}
	cfg.Measure = 20000
	res := mustRun(t, cfg)
	want := 0 + 3 + 1 + 1
	if res.P95Latency != want {
		t.Fatalf("same-router latency %d, want %d (%v)", res.P95Latency, want, res)
	}
	if res.AvgHops != 0 {
		t.Fatalf("hops = %g, want 0", res.AvgHops)
	}
	if res.AvgContentionPerHop > 0.02 {
		t.Fatalf("contention %g", res.AvgContentionPerHop)
	}
}

func TestConcentrationConservation(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandomRect(4*4, 4), 0.01)
	cfg.Concentration = 4
	res := mustRun(t, cfg)
	if !res.Drained {
		t.Fatalf("concentrated run did not drain: %v", res)
	}
	if res.Counts.FlitsInjected != res.Counts.FlitsEjected {
		t.Fatal("flit conservation violated")
	}
	if res.MeasuredPackets == 0 {
		t.Fatal("no traffic")
	}
}

func TestConcentrationSaturatesEarlierPerCore(t *testing.T) {
	// With 4 cores per router the same per-core rate offers 4x the load to
	// each router: the concentrated network must congest at a per-core rate
	// where the plain one is still comfortable.
	at := func(k int, rate float64) Result {
		n := 4
		pat := traffic.UniformRandomRect(k*n, n)
		cfg := quickCfg(topo.Mesh(n), 1, pat, rate)
		cfg.Concentration = k
		cfg.Measure = 3000
		cfg.Drain = 6000
		return mustRun(t, cfg)
	}
	plain := at(1, 0.10)
	conc := at(4, 0.10)
	if conc.AvgPacketLatency <= plain.AvgPacketLatency {
		t.Fatalf("concentration did not increase congestion: %.2f vs %.2f",
			conc.AvgPacketLatency, plain.AvgPacketLatency)
	}
}

func TestConcentrationTraceRoundTrip(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandomRect(2*4, 4), 0.01)
	cfg.Concentration = 2
	cfg.RecordTrace = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr := s.RecordedTrace()
	if tr.K != 2 {
		t.Fatalf("trace K = %d", tr.K)
	}
	replay := quickCfg(topo.Mesh(4), 1, nil, 0)
	replay.Concentration = 2
	replay.Trace = tr
	s2, err := New(replay)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts != orig.Counts {
		t.Fatalf("concentrated replay diverged")
	}
	// Replaying at the wrong concentration must be rejected.
	bad := quickCfg(topo.Mesh(4), 1, nil, 0)
	bad.Trace = tr
	if _, err := New(bad); err == nil {
		t.Fatal("trace concentration mismatch accepted")
	}
}

func TestConcentrationValidation(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.01)
	cfg.Concentration = 99
	if _, err := New(cfg); err == nil {
		t.Fatal("absurd concentration accepted")
	}
}

func TestConcentratedFlattenedButterflyBeatsMesh(t *testing.T) {
	// The flattened butterfly of [17] in its original form: 64 cores as a
	// 4x4 network of concentration-4 routers with full row/column
	// connectivity. At low load it must beat the 64-core mesh on latency —
	// the result that motivated express-link topologies in the first place.
	fbCfg := quickCfg(topo.FlattenedButterfly(4), 4, traffic.UniformRandomRect(4*4, 4), 0.01)
	fbCfg.Concentration = 4
	fb := mustRun(t, fbCfg)

	meshCfg := quickCfg(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.01)
	mesh := mustRun(t, meshCfg)

	if !fb.Drained || !mesh.Drained {
		t.Fatalf("runs unhealthy: fb=%v mesh=%v", fb.Drained, mesh.Drained)
	}
	if fb.AvgPacketLatency >= mesh.AvgPacketLatency {
		t.Fatalf("concentrated FB %.2f not below 64-core mesh %.2f",
			fb.AvgPacketLatency, mesh.AvgPacketLatency)
	}
	if fb.AvgHops >= mesh.AvgHops {
		t.Fatalf("FB hops %.2f not below mesh %.2f", fb.AvgHops, mesh.AvgHops)
	}
}
