package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// SweepPoint is one injection-rate sample of a load-latency curve.
type SweepPoint struct {
	Rate   float64
	Result Result
}

// SweepResult is a load-latency curve plus the detected saturation
// throughput (Fig. 8b's metric: accepted packets per node per cycle at the
// highest stable load).
type SweepResult struct {
	// Points is the probed load-latency curve, sorted by ascending Rate
	// (bisection probes land between the coarse samples, not after them).
	Points     []SweepPoint
	Saturation float64 // accepted packets/node/cycle at the last stable point
	SatRate    float64 // offered rate of that point

	// SimCycles, WallTime and CyclesPerSec report the sweep's aggregate
	// simulation throughput over every probed rate.
	SimCycles    int64
	WallTime     time.Duration
	CyclesPerSec float64
}

// SaturationOpts controls the throughput search.
type SaturationOpts struct {
	// Start is the first offered rate; Factor multiplies the rate between
	// coarse steps; MaxRate bounds the search.
	Start, Factor, MaxRate float64
	// LatencyLimit declares saturation when the average packet latency
	// exceeds LatencyLimit times the zero-load latency.
	LatencyLimit float64
	// Refine bisection steps between the last stable and first saturated
	// rate.
	Refine int
	// Replicas runs every probe as a Batch of this many seed replicas and
	// aggregates them (AggregateReplicas): a probe is stable only if every
	// replica drained without a deadlock, so the detected knee is robust to
	// a lucky seed. 0 or 1 probes once with the base seed, a batch of one.
	Replicas int
}

// DefaultSaturationOpts matches common NoC methodology: latency blowing past
// 4x zero-load (or failure to drain) marks saturation.
func DefaultSaturationOpts() SaturationOpts {
	return SaturationOpts{Start: 0.005, Factor: 1.5, MaxRate: 1.0, LatencyLimit: 4, Refine: 4}
}

// FindSaturation sweeps the offered load upward until the network saturates,
// then bisects to locate the knee. The base config's InjectionRate is
// ignored; everything else (topology, pattern, seed, phases) is reused.
//
// A probe run that trips the deadlock detector is a legitimate data point —
// it means the rate is past saturation — so it lands on the curve instead of
// failing the sweep. Cancelling ctx aborts the search with an error matching
// ErrCancelled; the points probed so far are returned alongside it.
func FindSaturation(ctx context.Context, base Config, opts SaturationOpts) (sr SweepResult, err error) {
	if opts.Start <= 0 || opts.Factor <= 1 || opts.MaxRate <= 0 {
		return SweepResult{}, fmt.Errorf("sim: bad saturation options %+v", opts)
	}
	defer func() {
		// Bisection appends its mid-rate probes after the coarse samples;
		// restore rate order so Points is a plottable curve even when the
		// sweep returns early with partial results.
		sort.SliceStable(sr.Points, func(i, j int) bool {
			return sr.Points[i].Rate < sr.Points[j].Rate
		})
		sr.CyclesPerSec = cyclesPerSec(sr.SimCycles, sr.WallTime)
	}()
	runAt := func(rate float64) (Result, error) {
		cfg := base
		cfg.InjectionRate = rate
		results, agg, err := runReplicas(ctx, cfg, max(opts.Replicas, 1), 0)
		res := AggregateReplicas(results)
		sr.SimCycles += res.Cycles
		sr.WallTime += agg.WallTime
		if errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrCancelled) && !errors.Is(err, ErrAudit) {
			// Only deadlocks among the replica failures: not a sweep failure
			// but the clearest possible saturation signal. DeadlockSuspected
			// is set on the aggregate, so stable() rejects the point.
			err = nil
		}
		return res, err
	}

	zero, err := runAt(opts.Start)
	if err != nil {
		return sr, err
	}
	sr.Points = append(sr.Points, SweepPoint{Rate: opts.Start, Result: zero})
	if !zero.Drained || zero.MeasuredPackets == 0 {
		return sr, fmt.Errorf("sim: network unstable at the probe rate %g: %w", opts.Start, ErrUnstable)
	}
	zeroLat := zero.AvgPacketLatency
	stable := func(r Result) bool {
		return r.Drained && !r.DeadlockSuspected && r.AvgPacketLatency <= opts.LatencyLimit*zeroLat
	}

	lastGood, lastGoodThr := opts.Start, zero.ThroughputPackets
	firstBad := 0.0
	for rate := opts.Start; rate < opts.MaxRate; {
		rate *= opts.Factor
		if rate > opts.MaxRate {
			// Clamp the final coarse step so the cap itself is probed; a pure
			// geometric sweep can jump straight over MaxRate and report a
			// network that only saturates near the cap as "never saturated"
			// with a stale throughput from a much lower rate.
			rate = opts.MaxRate
		}
		res, err := runAt(rate)
		if err != nil {
			return sr, err
		}
		sr.Points = append(sr.Points, SweepPoint{Rate: rate, Result: res})
		if stable(res) {
			lastGood, lastGoodThr = rate, res.ThroughputPackets
			continue
		}
		firstBad = rate
		break
	}
	if firstBad == 0 {
		// Never saturated within MaxRate; report the best stable point.
		sr.Saturation, sr.SatRate = lastGoodThr, lastGood
		return sr, nil
	}
	lo, hi := lastGood, firstBad
	for i := 0; i < opts.Refine; i++ {
		mid := (lo + hi) / 2
		res, err := runAt(mid)
		if err != nil {
			return sr, err
		}
		sr.Points = append(sr.Points, SweepPoint{Rate: mid, Result: res})
		if stable(res) {
			lo, lastGoodThr = mid, res.ThroughputPackets
		} else {
			hi = mid
		}
	}
	sr.Saturation, sr.SatRate = lastGoodThr, lo
	return sr, nil
}
