package sim

// This file implements the batched replica engine: many simulations of the
// same configuration, differing only by seed, run over one shared immutable
// network description (netShared). The split is structure-of-arrays at the
// fleet level — seed-independent columns (routing tables, link enumeration,
// ideal-latency matrices, mix tables) are built once and shared read-only,
// while each replica's mutable state lives in its own contiguous arenas —
// so R replicas cost one construction plus R instantiations, and a stepping
// replica touches no other replica's memory.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"explink/internal/stats"
)

// Batch is a set of replica simulations of one configuration that differ
// only by seed. Create with NewBatch, run once with Run; like Simulator it
// is not reusable.
type Batch struct {
	shared *netShared
	sims   []*Simulator
}

// NewBatch builds one replica per seed over a single shared network
// description. Each replica is bit-identical to New(cfg with that Seed):
// construction order, arena layout and PRNG streams all match the single-run
// path, which the golden-fixture harness pins.
func NewBatch(cfg Config, seeds []uint64) (*Batch, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: batch needs at least one seed: %w", ErrConfig)
	}
	sh, err := newShared(cfg)
	if err != nil {
		return nil, err
	}
	b := &Batch{shared: sh, sims: make([]*Simulator, len(seeds))}
	for i, seed := range seeds {
		b.sims[i] = sh.instantiate(seed)
	}
	return b, nil
}

// Replicas returns the batch's simulators in seed order, for inspection
// after Run (utilization heatmaps, channel stats, recorded traces).
func (b *Batch) Replicas() []*Simulator { return b.sims }

// batchChunk is how many cycles a replica advances per scheduling turn: a
// multiple of the run loop's context-poll cadence, small enough that
// cancellation latency and load balance stay comparable to the worker-pool
// path, large enough that one replica's working set is reused for thousands
// of allocator visits before the next replica evicts it.
const batchChunk = 4 * (ctxCheckMask + 1)

// Run steps every replica to completion and returns per-replica results in
// seed order plus the batch's aggregate throughput. workers <= 0 uses
// GOMAXPROCS; replicas are owned by workers in round-robin stride, and each
// worker interleaves its replicas in batchChunk-cycle slices, so results are
// bit-identical to running each replica alone regardless of worker count.
//
// The partial-results contract matches RunManyAgg: the result slice always
// has one entry per seed, failed replicas (deadlock, audit, cancellation)
// contribute an error wrapped with their replica index to the joined error,
// and a replica's WallTime is the batch elapsed time at its finish. Every
// replica starts at once, so a cancelled replica keeps its partial Result.
func (b *Batch) Run(ctx context.Context, workers int) ([]Result, Agg, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	r := len(b.sims)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r {
		workers = r
	}
	results := make([]Result, r)
	errs := make([]error, r)
	met := simMet.Load()
	if met != nil {
		met.batchReplicas.Set(int64(r))
		met.batchActive.Add(int64(r))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := make([]int, 0, (r+workers-1)/workers)
			for i := w; i < r; i += workers {
				own = append(own, i)
				if s := b.sims[i]; s.met != nil {
					s.met.runsStarted.Inc()
				}
			}
			for len(own) > 0 {
				live := own[:0]
				for _, i := range own {
					s := b.sims[i]
					if !s.advance(ctx, batchChunk) {
						live = append(live, i)
						continue
					}
					results[i] = s.finish(start)
					if err := s.runErr; err != nil {
						errs[i] = fmt.Errorf("sim: run %d: %w", i, err)
					}
					if met != nil {
						met.batchActive.Add(-1)
					}
				}
				own = live
			}
		}(w)
	}
	wg.Wait()

	agg := aggOf(results, errs, start)
	if met != nil {
		met.batchCyclesPerSec.Set(agg.CyclesPerSec)
	}
	return results, agg, errors.Join(errs...)
}

// ReplicaSeeds derives r decorrelated seeds from a base seed: the first
// replica keeps the base seed (so replica 0 reproduces the single-run
// result exactly) and the rest are split off with stats.MixSeed.
func ReplicaSeeds(base uint64, r int) []uint64 {
	seeds := make([]uint64, r)
	for i := range seeds {
		if i == 0 {
			seeds[i] = base
			continue
		}
		seeds[i] = stats.MixSeed(base, uint64(i))
	}
	return seeds
}

// AggregateReplicas folds per-replica results of one operating point into a
// single summary Result: means of the latency, hop and throughput figures,
// maxima of the tail latencies, sums of the cycle and packet counts, Drained
// only if every replica drained and DeadlockSuspected if any replica
// suspects one. Non-summary fields (topology, pattern, rate, truncation)
// come from the first result. Empty input yields the zero Result.
func AggregateReplicas(results []Result) Result {
	if len(results) == 0 {
		return Result{}
	}
	out := results[0]
	for _, r := range results[1:] {
		out.Cycles += r.Cycles
		out.MeasuredPackets += r.MeasuredPackets
		out.AvgPacketLatency += r.AvgPacketLatency
		out.AvgNetLatency += r.AvgNetLatency
		out.AvgHops += r.AvgHops
		out.AvgContentionPerHop += r.AvgContentionPerHop
		out.ThroughputPackets += r.ThroughputPackets
		out.ThroughputFlits += r.ThroughputFlits
		out.WallTime += r.WallTime
		if r.P95Latency > out.P95Latency {
			out.P95Latency = r.P95Latency
		}
		if r.P99Latency > out.P99Latency {
			out.P99Latency = r.P99Latency
		}
		if r.MaxLatency > out.MaxLatency {
			out.MaxLatency = r.MaxLatency
		}
		out.Drained = out.Drained && r.Drained
		out.DeadlockSuspected = out.DeadlockSuspected || r.DeadlockSuspected
		out.Counts.BufferWrites += r.Counts.BufferWrites
		out.Counts.BufferReads += r.Counts.BufferReads
		out.Counts.SwitchTraversals += r.Counts.SwitchTraversals
		out.Counts.LinkFlitUnits += r.Counts.LinkFlitUnits
		out.Counts.VCAllocs += r.Counts.VCAllocs
		out.Counts.CreditsSent += r.Counts.CreditsSent
		out.Counts.PacketsInjected += r.Counts.PacketsInjected
		out.Counts.PacketsEjected += r.Counts.PacketsEjected
		out.Counts.FlitsInjected += r.Counts.FlitsInjected
		out.Counts.FlitsEjected += r.Counts.FlitsEjected
	}
	n := float64(len(results))
	out.AvgPacketLatency /= n
	out.AvgNetLatency /= n
	out.AvgHops /= n
	out.AvgContentionPerHop /= n
	out.ThroughputPackets /= n
	out.ThroughputFlits /= n
	out.CyclesPerSec = cyclesPerSec(out.Cycles, out.WallTime)
	return out
}

// RunManyReplicatedAgg runs every config `replicas` times with decorrelated
// seeds (ReplicaSeeds) and returns one AggregateReplicas summary per config.
// replicas <= 1 is exactly RunManyAgg. Each config's replica group runs as
// one Batch; a group that fails to build or run contributes one error
// wrapped with its config index.
func RunManyReplicatedAgg(ctx context.Context, cfgs []Config, replicas, workers int) ([]Result, Agg, error) {
	if replicas <= 1 {
		return RunManyAgg(ctx, cfgs, workers)
	}
	start := time.Now()
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var cycles int64
	for i, cfg := range cfgs {
		reps, a, err := runReplicas(ctx, cfg, replicas, workers)
		cycles += a.SimCycles
		if err != nil {
			errs[i] = fmt.Errorf("sim: config %d: %w", i, err)
			continue
		}
		results[i] = AggregateReplicas(reps)
	}
	wall := time.Since(start)
	agg := Agg{SimCycles: cycles, WallTime: wall, CyclesPerSec: cyclesPerSec(cycles, wall)}
	return results, agg, errors.Join(errs...)
}

// runReplicas builds and runs cfg as a Batch of r replicas seeded by
// ReplicaSeeds; a config that fails to build returns no results.
func runReplicas(ctx context.Context, cfg Config, r, workers int) ([]Result, Agg, error) {
	b, err := NewBatch(cfg, ReplicaSeeds(cfg.Seed, r))
	if err != nil {
		return nil, Agg{}, err
	}
	return b.Run(ctx, workers)
}
