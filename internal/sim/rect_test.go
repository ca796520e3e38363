package sim

import (
	"context"
	"math"
	"testing"

	"explink/internal/model"
	"explink/internal/topo"
	"explink/internal/traffic"
)

func TestRectangularZeroLoad(t *testing.T) {
	// A 8x4 mesh, corner to corner: 7 X hops + 3 Y hops = 10 hops, head
	// 10*(3+1) = 40; latency = 40 + 3 + flits + 1.
	tp := topo.MeshRect(8, 4)
	dst := 3*tp.W + 7
	cfg := quickCfg(tp, 1, pairPattern{Src: 0, Dst: dst}, 0.002)
	cfg.Mix = []model.PacketClass{{Name: "only", Bits: 128, Frac: 1}}
	cfg.Measure = 20000
	res := mustRun(t, cfg)
	want := 40 + 3 + 1 + 1
	if res.P95Latency != want {
		t.Fatalf("rect zero-load latency %d, want %d (%v)", res.P95Latency, want, res)
	}
	if res.AvgHops != 10 {
		t.Fatalf("hops = %g", res.AvgHops)
	}
}

func TestRectangularConservation(t *testing.T) {
	tp := topo.MeshRect(6, 3)
	cfg := quickCfg(tp, 1, traffic.UniformRandomRect(6, 3), 0.02)
	res := mustRun(t, cfg)
	if !res.Drained {
		t.Fatalf("rect run did not drain: %v", res)
	}
	if res.Counts.FlitsInjected != res.Counts.FlitsEjected {
		t.Fatal("flit conservation violated on rectangle")
	}
	if res.MeasuredPackets == 0 {
		t.Fatal("no traffic measured")
	}
}

func TestRectangularExpressSim(t *testing.T) {
	// Express links on the long dimension only: latency must drop vs the
	// plain rectangle, and the sim must agree with the analytic model at
	// near-zero load.
	row := topo.NewRow(8, topo.Span{From: 0, To: 4}, topo.Span{From: 4, To: 7})
	tp := topo.Rect("rect-express", 8, 4, row, topo.MeshRow(4))
	cfg := quickCfg(tp, 2, traffic.UniformRandomRect(8, 4), 0.004)
	res := mustRun(t, cfg)

	plain := quickCfg(topo.MeshRect(8, 4), 1, traffic.UniformRandomRect(8, 4), 0.004)
	plainRes := mustRun(t, plain)
	if res.AvgNetLatency >= plainRes.AvgNetLatency {
		t.Fatalf("express rect %.2f not faster than mesh rect %.2f",
			res.AvgNetLatency, plainRes.AvgNetLatency)
	}

	// Analytic cross-check of the mean head latency.
	p := model.Params{RouterDelay: 3, LinkDelay: 1}
	paths := model.ComputeTopoPaths(tp, p)
	nodes := float64(tp.NumRouters())
	meanNoDiag := paths.MeanHead() * nodes * nodes / (nodes * (nodes - 1))
	ideal := meanNoDiag + 3 + model.Serialization(model.DefaultMix(), 128)
	if math.Abs(res.AvgNetLatency-ideal) > 1.0 {
		t.Fatalf("sim %.2f vs analytic %.2f", res.AvgNetLatency, ideal)
	}
}

func TestRectangularTraceRoundTrip(t *testing.T) {
	tp := topo.MeshRect(4, 6)
	cfg := quickCfg(tp, 1, traffic.UniformRandomRect(4, 6), 0.02)
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
	if tr.W != 4 || tr.H != 6 {
		t.Fatalf("trace shape %dx%d", tr.W, tr.H)
	}
	replayCfg := quickCfg(tp, 1, nil, 0)
	replayCfg.Trace = tr
	s2, err := New(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if replay.Counts != orig.Counts {
		t.Fatalf("rect replay diverged:\n%+v\n%+v", orig.Counts, replay.Counts)
	}
}
