// Package explink's root benchmark harness: one benchmark per table and
// figure of the paper (regenerating its rows/series through the exp drivers)
// plus micro-benchmarks for the hot paths of the optimizer and the
// simulator. Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks use the experiment drivers in quick mode so a
// full -bench pass stays in the minutes range; `expbench` runs them at full
// fidelity and prints the tables.
package explink

import (
	"context"
	"testing"

	"explink/internal/anneal"
	"explink/internal/bnb"
	"explink/internal/core"
	"explink/internal/dnc"
	"explink/internal/exp"
	"explink/internal/model"
	"explink/internal/oracle"
	"explink/internal/sim"
	"explink/internal/stats"
	"explink/internal/topo"
	"explink/internal/traffic"
)

// ---- Per-figure/table harnesses (Section 5 of the paper) ----

// quickOptions are the reduced budgets of expbench -quick at seed 1.
var quickOptions = exp.Options{Quick: true, Seed: 1}

func BenchmarkFig5LatencyVsC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig5(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ParsecLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7RuntimeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SyntheticTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9PowerPerBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10StaticBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11BandwidthImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12VsOptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2WorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table2(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppSpecific(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AppSpec(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations and extensions ----

func BenchmarkAblationGenerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationGenerator(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationRouting(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationBypass(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBottleneckAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Bottleneck(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Robustness(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.LoadLatency(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroarch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Microarch(quickOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Optimizer micro-benchmarks ----

func BenchmarkRowEval8(b *testing.B) {
	row := topo.HFBRow(8)
	p := model.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.RowMean(row, p)
	}
}

func BenchmarkRowEval16(b *testing.B) {
	row := topo.HFBRow(16)
	p := model.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.RowMean(row, p)
	}
}

// fullEvalObjective scores every memo miss by re-routing the whole decoded
// row through an oracle.Scratch, the full-evaluation reference the annealing
// benchmark times (the incremental path is BenchmarkMinimize/inc in
// internal/anneal).
type fullEvalObjective struct {
	s       *oracle.Scratch
	m       *topo.ConnMatrix
	pending int
}

func (o *fullEvalObjective) K() int { return 1 }
func (o *fullEvalObjective) Init(m *topo.ConnMatrix, dst []float64) {
	o.m = m.Clone()
	o.Eval(dst)
}
func (o *fullEvalObjective) Flip(bit int)       { o.m.FlipAt(bit); o.pending = bit }
func (o *fullEvalObjective) Eval(dst []float64) { dst[0] = o.s.MeanDist(o.m.Row()) }
func (o *fullEvalObjective) Commit()            {}
func (o *fullEvalObjective) Revert()            { o.m.FlipAt(o.pending) }

func BenchmarkAnnealFullSchedule8x8C4(b *testing.B) {
	rp := model.DefaultParams().Route()
	obj := &fullEvalObjective{s: oracle.NewScratch(rp.PerHop, rp.PerUnit)}
	sch := anneal.DefaultSchedule()
	for i := 0; i < b.N; i++ {
		m := topo.NewConnMatrix(8, 4)
		anneal.MinimizePareto(context.Background(), m, obj, anneal.ParetoOpts{}, sch, stats.NewRNG(uint64(i)))
	}
}

func BenchmarkDnCInitial16(b *testing.B) {
	p := model.DefaultParams()
	for i := 0; i < b.N; i++ {
		dnc.Initial(16, 4, p)
	}
}

func BenchmarkBnBOptimalP84(b *testing.B) {
	p := model.DefaultParams()
	for i := 0; i < b.N; i++ {
		bnb.OptimalRow(8, 4, p)
	}
}

func BenchmarkOptimize8x8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewSolver(model.DefaultConfig(8))
		if _, _, err := s.Optimize(context.Background(), core.DCSA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize8x8Seq pins Workers to 1; the delta against
// BenchmarkOptimize8x8 (which uses GOMAXPROCS workers) is the parallel C-sweep
// speedup. Both produce bit-identical placements.
func BenchmarkOptimize8x8Seq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewSolver(model.DefaultConfig(8))
		s.Workers = 1
		if _, _, err := s.Optimize(context.Background(), core.DCSA); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Simulator micro-benchmarks ----

func benchSim(b *testing.B, t topo.Topology, c int, rate float64) {
	b.Helper()
	cfg := sim.NewConfig(t, c, traffic.UniformRandom(t.N()), rate)
	cfg.Warmup, cfg.Measure, cfg.Drain = 500, 3000, 10000
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

func BenchmarkSimMesh8x8(b *testing.B)   { benchSim(b, topo.Mesh(8), 1, 0.02) }
func BenchmarkSimHFB8x8(b *testing.B)    { benchSim(b, topo.HFB(8), 4, 0.02) }
func BenchmarkSimMesh16x16(b *testing.B) { benchSim(b, topo.Mesh(16), 1, 0.01) }

func BenchmarkSimSaturated8x8(b *testing.B) {
	cfg := sim.NewConfig(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.4)
	cfg.Warmup, cfg.Measure, cfg.Drain = 500, 2000, 1000
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
