package sim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"explink/internal/model"
	"explink/internal/stats"
	"explink/internal/topo"
	"explink/internal/traffic"
)

// pairPattern injects only at Src, always toward Dst; every other node stays
// silent (Dest == src drops the packet).
type pairPattern struct{ Src, Dst int }

func (p pairPattern) Name() string { return "pair" }
func (p pairPattern) Dest(src int, _ *stats.RNG) int {
	if src == p.Src {
		return p.Dst
	}
	return src
}

func quickCfg(t topo.Topology, c int, pat traffic.Pattern, rate float64) Config {
	cfg := NewConfig(t, c, pat, rate)
	cfg.Warmup = 500
	cfg.Measure = 4000
	cfg.Drain = 20000
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestZeroLoadMatchesModel(t *testing.T) {
	// A single corner-to-corner flow on a 4x4 mesh with one packet class:
	// the median zero-load packet latency must equal the analytic value
	// exactly: head (6 hops * 3 + 6 units = 24) + stages (3) + flits + 1.
	for _, tc := range []struct {
		bits, flits int
	}{
		{512, 2}, {128, 1},
	} {
		cfg := quickCfg(topo.Mesh(4), 1, pairPattern{Src: 0, Dst: 15}, 0.002)
		cfg.Mix = []model.PacketClass{{Name: "only", Bits: tc.bits, Frac: 1}}
		cfg.Measure = 20000
		res := mustRun(t, cfg)
		if res.MeasuredPackets == 0 {
			t.Fatal("no packets measured")
		}
		want := 24 + 3 + tc.flits + 1
		if got := res.P95Latency; got != want {
			t.Fatalf("bits=%d: p95 latency = %d, want %d (res: %v)", tc.bits, got, want, res)
		}
		if res.AvgHops != 6 {
			t.Fatalf("hops = %g, want 6", res.AvgHops)
		}
		if res.AvgContentionPerHop > 0.02 {
			t.Fatalf("contention = %g at zero load", res.AvgContentionPerHop)
		}
	}
}

func TestZeroLoadExpressMatchesModel(t *testing.T) {
	// Express row 0-7 on an 8x8 network: the 0 -> 7 flow in row 0 takes one
	// hop of length 7: head = 3 + 7 = 10, so latency = 10 + 3 + flits + 1.
	row := topo.NewRow(8, topo.Span{From: 0, To: 7})
	tp := topo.Uniform("express", 8, row)
	cfg := quickCfg(tp, 2, pairPattern{Src: 0, Dst: 7}, 0.002)
	cfg.Mix = []model.PacketClass{{Name: "only", Bits: 128, Frac: 1}}
	cfg.Measure = 20000
	res := mustRun(t, cfg)
	want := 10 + 3 + 1 + 1
	if got := res.P95Latency; got != want {
		t.Fatalf("latency = %d, want %d (%v)", got, want, res)
	}
	if res.AvgHops != 1 {
		t.Fatalf("hops = %g, want 1", res.AvgHops)
	}
}

func TestConservationAndDrain(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatalf("low-load run did not drain: %v", res)
	}
	if res.Counts.PacketsInjected != res.Counts.PacketsEjected {
		t.Fatalf("packet conservation violated: %d in, %d out",
			res.Counts.PacketsInjected, res.Counts.PacketsEjected)
	}
	if res.Counts.FlitsInjected != res.Counts.FlitsEjected {
		t.Fatalf("flit conservation violated: %d in, %d out",
			res.Counts.FlitsInjected, res.Counts.FlitsEjected)
	}
	if s.InFlight() != 0 {
		t.Fatalf("flits left in network: %d", s.InFlight())
	}
	if res.Counts.BufferWrites != res.Counts.BufferReads {
		t.Fatalf("buffer writes %d != reads %d", res.Counts.BufferWrites, res.Counts.BufferReads)
	}
}

func TestUniformRandomZeroLoadAverage(t *testing.T) {
	// At very low load the average network latency must approach the
	// analytic zero-load mean over source!=dest pairs.
	n := 8
	cfg := quickCfg(topo.Mesh(n), 1, traffic.UniformRandom(n), 0.003)
	res := mustRun(t, cfg)
	p := model.Params{RouterDelay: 3, LinkDelay: 1}
	tp := model.ComputeTopoPaths(topo.Mesh(n), p)
	nn := float64(n * n)
	meanHeadNoDiag := tp.MeanHead() * (nn * nn) / (nn * (nn - 1))
	ideal := meanHeadNoDiag + 3 + model.Serialization(model.DefaultMix(), 256)
	if math.Abs(res.AvgNetLatency-ideal) > 1.0 {
		t.Fatalf("avg net latency %.2f, ideal %.2f (%v)", res.AvgNetLatency, ideal, res)
	}
	if res.AvgContentionPerHop > 0.2 {
		t.Fatalf("contention %.2f at near-zero load", res.AvgContentionPerHop)
	}
}

func TestHopsMatchRouting(t *testing.T) {
	// Deterministic transpose traffic: measured mean hops must equal the
	// analytic hop count averaged over the transpose pairs.
	n := 4
	pat := traffic.Transpose(n)
	cfg := quickCfg(topo.Mesh(n), 1, pat, 0.01)
	res := mustRun(t, cfg)
	p := model.Params{RouterDelay: 3, LinkDelay: 1}
	tp := model.ComputeTopoPaths(topo.Mesh(n), p)
	var want, cnt float64
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			src, dst := y*n+x, x*n+y
			if src == dst {
				continue
			}
			want += float64(tp.PairHops(src, dst))
			cnt++
		}
	}
	want /= cnt
	// Sources inject slightly different packet counts (Bernoulli draws), so
	// the measured average is per-packet rather than per-pair; allow a small
	// sampling tolerance.
	if math.Abs(res.AvgHops-want) > 0.05 {
		t.Fatalf("hops = %g, want %g", res.AvgHops, want)
	}
}

func TestExpressReducesLatency(t *testing.T) {
	n := 8
	mesh := quickCfg(topo.Mesh(n), 1, traffic.UniformRandom(n), 0.005)
	meshRes := mustRun(t, mesh)
	hfb := quickCfg(topo.HFB(n), 4, traffic.UniformRandom(n), 0.005)
	hfbRes := mustRun(t, hfb)
	if hfbRes.AvgNetLatency >= meshRes.AvgNetLatency {
		t.Fatalf("HFB %.2f not faster than mesh %.2f", hfbRes.AvgNetLatency, meshRes.AvgNetLatency)
	}
	if hfbRes.AvgHops >= meshRes.AvgHops {
		t.Fatalf("HFB hops %.2f not fewer than mesh %.2f", hfbRes.AvgHops, meshRes.AvgHops)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := quickCfg(topo.HFB(8), 4, traffic.UniformRandom(8), 0.02)
		cfg.Seed = 12345
		return mustRun(t, cfg)
	}
	a, b := run(), run()
	if a.WithoutTiming() != b.WithoutTiming() {
		t.Fatalf("non-deterministic results:\n%v\n%v", a, b)
	}
}

func TestSeedMatters(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	cfg.Seed = 1
	a := mustRun(t, cfg)
	cfg.Seed = 2
	b := mustRun(t, cfg)
	if a.Counts.PacketsInjected == b.Counts.PacketsInjected && a.AvgPacketLatency == b.AvgPacketLatency {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestHighLoadNoDeadlock(t *testing.T) {
	// Saturating an express topology must never trip the deadlock watchdog:
	// routing is provably acyclic, so traffic keeps moving even when
	// congested (the run may legitimately fail to drain).
	for _, tc := range []struct {
		name string
		tp   topo.Topology
		c    int
	}{
		{"mesh", topo.Mesh(4), 1},
		{"fb", topo.FlattenedButterfly(4), 4},
		{"hfb8", topo.HFB(8), 4},
	} {
		cfg := quickCfg(tc.tp, tc.c, traffic.UniformRandom(tc.tp.N()), 0.5)
		cfg.Measure = 3000
		cfg.Drain = 3000
		res := mustRun(t, cfg)
		if res.DeadlockSuspected {
			t.Fatalf("%s: deadlock suspected under load: %v", tc.name, res)
		}
		if res.Counts.PacketsEjected == 0 {
			t.Fatalf("%s: nothing moved", tc.name)
		}
	}
}

func TestTornadoAndPatternsRun(t *testing.T) {
	n := 8
	for _, pat := range []traffic.Pattern{
		traffic.Transpose(n), traffic.BitReverse(n), traffic.BitComplement(n),
		traffic.Shuffle(n), traffic.Tornado(n), traffic.Neighbor(n),
		traffic.Hotspot(n, []int{0, 63}, 0.2, traffic.UniformRandom(n)),
	} {
		cfg := quickCfg(topo.Mesh(n), 1, pat, 0.01)
		cfg.Measure = 2000
		res := mustRun(t, cfg)
		if !res.Drained || res.MeasuredPackets == 0 {
			t.Fatalf("%s: %v", pat.Name(), res)
		}
	}
}

func TestEqualBufferBudget(t *testing.T) {
	// Section 4.6: schemes get identical total buffer bits. Depth must adapt
	// to port count and width.
	cfg := NewConfig(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.01)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if d := cfg.vcDepth(5); d != 4 { // 20480 / (5*4*256)
		t.Fatalf("mesh depth = %d, want 4", d)
	}
	cfg2 := NewConfig(topo.HFB(8), 4, traffic.UniformRandom(8), 0.01)
	if err := cfg2.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg2.WidthBits != 64 {
		t.Fatalf("HFB width = %d", cfg2.WidthBits)
	}
	// 8 in-ports at 64 bits: 20480/(8*4*64) = 10 flits.
	if d := cfg2.vcDepth(8); d != 10 {
		t.Fatalf("HFB depth = %d, want 10", d)
	}
	if d := cfg2.vcDepth(1000); d != 2 {
		t.Fatalf("depth floor = %d, want 2", d)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := NewConfig(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.01)
	bad.InjectionRate = 2
	if _, err := New(bad); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	bad2 := NewConfig(topo.Mesh(8), 1, nil, 0.01)
	if _, err := New(bad2); err == nil {
		t.Fatal("nil pattern accepted")
	}
	bad3 := NewConfig(topo.HFB(8), 1, traffic.UniformRandom(8), 0.01) // HFB needs C=4
	if _, err := New(bad3); err == nil {
		t.Fatal("topology over link limit accepted")
	}
	bad4 := NewConfig(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.01)
	bad4.Measure = 0
	if _, err := New(bad4); err == nil {
		t.Fatal("zero measure window accepted")
	}
}

func TestZeroRate(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0)
	res := mustRun(t, cfg)
	if res.Counts.PacketsInjected != 0 || !res.Drained {
		t.Fatalf("zero-rate run: %v", res)
	}
}

func TestSerializationVisibleInSim(t *testing.T) {
	// Same topology at narrower width: long packets take more flits, so the
	// measured latency grows by the extra serialization.
	pat := pairPattern{Src: 0, Dst: 15}
	wide := quickCfg(topo.Mesh(4), 1, pat, 0.002)
	wide.Mix = []model.PacketClass{{Name: "long", Bits: 512, Frac: 1}}
	wide.Measure = 10000
	wres := mustRun(t, wide)

	narrow := quickCfg(topo.Mesh(4), 1, pat, 0.002)
	narrow.Mix = []model.PacketClass{{Name: "long", Bits: 512, Frac: 1}}
	narrow.WidthBits = 64 // 8 flits per packet
	narrow.Measure = 10000
	nres := mustRun(t, narrow)

	if diff := nres.P95Latency - wres.P95Latency; diff != 6 {
		t.Fatalf("serialization delta = %d, want 6 (8 flits vs 2)", diff)
	}
}

func TestThroughputOrdering(t *testing.T) {
	// Fig. 8(b): mesh sustains more uniform-random load than the flattened
	// butterfly at the same bisection budget (express links trade throughput
	// for latency). Use a small network to keep the sweep fast.
	if testing.Short() {
		t.Skip("saturation sweep in short mode")
	}
	opts := DefaultSaturationOpts()
	opts.Start = 0.01
	base := func(t4 topo.Topology, c int) Config {
		cfg := NewConfig(t4, c, traffic.UniformRandom(4), 0)
		cfg.Warmup = 500
		cfg.Measure = 3000
		cfg.Drain = 8000
		return cfg
	}
	mesh, err := FindSaturation(context.Background(), base(topo.Mesh(4), 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FindSaturation(context.Background(), base(topo.FlattenedButterfly(4), 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Saturation <= fb.Saturation {
		t.Fatalf("mesh throughput %.4f not above FB %.4f", mesh.Saturation, fb.Saturation)
	}
}

func TestActivityCountsScaleWithLoad(t *testing.T) {
	lo := mustRun(t, quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.01))
	hi := mustRun(t, quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05))
	if hi.Counts.SwitchTraversals <= lo.Counts.SwitchTraversals {
		t.Fatal("switch activity did not grow with load")
	}
	if hi.Counts.LinkFlitUnits <= lo.Counts.LinkFlitUnits {
		t.Fatal("link activity did not grow with load")
	}
}

func TestVCFIFO(t *testing.T) {
	q := newVCFIFO(3)
	if q.front() != nil {
		t.Fatal("front of empty queue")
	}
	for i := 0; i < 3; i++ {
		q.push(bufEntry{readyAt: int64(i)})
	}
	if q.len() != 3 || q.cap() != 3 {
		t.Fatalf("len/cap = %d/%d", q.len(), q.cap())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("overflow not caught")
			}
		}()
		q.push(bufEntry{})
	}()
	for i := 0; i < 3; i++ {
		if e := q.pop(); e.readyAt != int64(i) {
			t.Fatalf("pop %d = %d", i, e.readyAt)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("underflow not caught")
			}
		}()
		q.pop()
	}()
}

func TestDebugString(t *testing.T) {
	s, err := New(quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if s.DebugString() == "" || s.Now() != 0 {
		t.Fatal("debug accessors broken")
	}
}

// TestNewAllocBound bounds what building the largest network the api admits
// (a 64x64 mesh) allocates. The ideal-latency metric reads the row and
// column shortest paths the network already holds; a cores x cores latency
// matrix per dimension order (134 MB each at this size, plus a second
// routing pass to fill them) allocated 206.6 MB under XY and 340.9 MB under
// O1TURN. Reading the paths allocates 49.8 MB in total.
func TestNewAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64x64 network")
	}
	const bound = 64 << 20
	for _, routing := range []RoutingMode{RoutingXY, RoutingO1Turn} {
		cfg := NewConfig(topo.Mesh(64), 1, traffic.UniformRandom(64), 0.01)
		cfg.Routing = routing
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("routing %d: New allocated %d bytes, want <= %d", routing, got, bound)
		}
	}
}
