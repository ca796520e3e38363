// External test package: the benchmark setup solves a placement through
// internal/core, which transitively imports internal/sim (via the power
// model) — an in-package test would be an import cycle. Stepping uses the
// StepForTest hook from export_test.go.
package sim_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"explink/internal/core"
	"explink/internal/model"
	"explink/internal/sim"
	"explink/internal/topo"
	"explink/internal/traffic"
)

// dcsaTopo8 solves the paper's 8x8 placement once (deterministic at seed 1);
// the solve happens in benchmark setup, outside the timed region.
var dcsaOnce struct {
	sync.Once
	tp  topo.Topology
	c   int
	err error
}

func dcsaTopo8(tb testing.TB) (topo.Topology, int) {
	dcsaOnce.Do(func() {
		s := core.NewSolver(model.DefaultConfig(8))
		s.Seed = 1
		best, _, err := s.Optimize(context.Background(), core.DCSA)
		if err != nil {
			dcsaOnce.err = err
			return
		}
		dcsaOnce.tp, dcsaOnce.c = s.Topology(best), best.C
	})
	if dcsaOnce.err != nil {
		tb.Fatal(dcsaOnce.err)
	}
	return dcsaOnce.tp, dcsaOnce.c
}

// steadySim builds a simulator stepped past warmup into steady state, with an
// effectively infinite measurement window so injection never stops.
func steadySim(tb testing.TB, tp topo.Topology, c int, rate float64, warmCycles int) *sim.Simulator {
	cfg := sim.NewConfig(tp, c, traffic.UniformRandom(8), rate)
	cfg.Seed = 1
	cfg.Measure = 1 << 30
	s, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warmCycles; i++ {
		s.StepForTest()
	}
	return s
}

func benchStep(b *testing.B, tp topo.Topology, c int, rate float64) {
	s := steadySim(b, tp, c, rate, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepForTest()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "cycles/sec")
	}
}

// BenchmarkStep8x8UR measures the per-cycle cost of the simulator core on an
// 8x8 network under uniform-random traffic: ns/op is wall time per simulated
// cycle. "low" is the paper-typical 0.05 flits/node/cycle operating point,
// "high" is near saturation.
func BenchmarkStep8x8UR(b *testing.B) {
	mesh := topo.Mesh(8)
	b.Run("mesh/low", func(b *testing.B) { benchStep(b, mesh, 1, 0.05) })
	b.Run("mesh/high", func(b *testing.B) { benchStep(b, mesh, 1, 0.25) })
	dcsa, c := dcsaTopo8(b)
	b.Run("dcsa/low", func(b *testing.B) { benchStep(b, dcsa, c, 0.05) })
	b.Run("dcsa/high", func(b *testing.B) { benchStep(b, dcsa, c, 0.25) })
}

// BenchmarkRun4x4UR measures a whole short simulation (New+Run), covering
// construction, warmup, measurement and drain.
func BenchmarkRun4x4UR(b *testing.B) {
	cfg := sim.NewConfig(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	cfg.Seed = 1
	cfg.Warmup, cfg.Measure, cfg.Drain = 200, 1000, 3000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSat8x8 measures a whole saturated simulation (New+Run) at UR
// 0.30 with the sim workload's 1000/4000/16000 phases: the run that sets
// that workload's tail latency.
func BenchmarkRunSat8x8(b *testing.B) {
	run := func(b *testing.B, tp topo.Topology, c int) {
		cfg := sim.NewConfig(tp, c, traffic.UniformRandom(8), 0.30)
		cfg.Seed = 1
		cfg.Warmup, cfg.Measure, cfg.Drain = 1000, 4000, 16000
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mesh", func(b *testing.B) { run(b, topo.Mesh(8), 1) })
	dcsa, c := dcsaTopo8(b)
	b.Run("dcsa", func(b *testing.B) { run(b, dcsa, c) })
}

// TestStepSteadyStateZeroAllocs pins the engine's allocation contract: once
// the engine reaches steady state, stepping the simulator performs zero heap
// allocations (packets reuse free slab slots, all queues reuse their rings
// and the timing wheels' credit slots stop growing). It covers a
// paper-typical load on the mesh and on an express placement, the mesh just
// below its knee, where the most events are in flight, and the express
// placement past its knee, where VCs park on their outputs. AllocsPerRun
// truncates, so a rare histogram bucket for a newly seen latency value, or a
// rare doubling of a growing source queue or the packet slab, does not flake
// the assertion.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	dcsa, c := dcsaTopo8(t)
	for _, tc := range []struct {
		name string
		tp   topo.Topology
		c    int
		rate float64
	}{
		{"mesh/0.05", topo.Mesh(8), 1, 0.05},
		{"mesh/0.25", topo.Mesh(8), 1, 0.25},
		{"dcsa/0.05", dcsa, c, 0.05},
		{"dcsa/0.25", dcsa, c, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := steadySim(t, tc.tp, tc.c, tc.rate, 5000)
			allocs := testing.AllocsPerRun(300, func() {
				s.StepForTest()
			})
			if allocs != 0 {
				t.Fatalf("steady-state step allocates %.0f objects/cycle; want 0", allocs)
			}
		})
	}
}

// TestRunSatAllocs bounds the heap allocations of one whole saturated dcsa
// run, BenchmarkRunSat8x8's config: construction, the packet slab and the
// source queues growing with the backlog, and the result. The bounds sit
// about 10% above the measured 2,676 allocations and 5.13 MB; a per-packet
// or per-flit allocation would add tens of thousands of allocations.
func TestRunSatAllocs(t *testing.T) {
	dcsa, c := dcsaTopo8(t)
	cfg := sim.NewConfig(dcsa, c, traffic.UniformRandom(8), 0.30)
	cfg.Seed = 1
	cfg.Warmup, cfg.Measure, cfg.Drain = 1000, 4000, 16000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const maxAllocs, maxBytes = 3000, 5_700_000
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("saturated dcsa run: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("saturated dcsa run allocated %d objects, %d bytes; want at most %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
