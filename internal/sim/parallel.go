package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"explink/internal/runctl"
)

// Agg reports a batch's aggregate simulation throughput: how many simulated
// cycles the batch covered and how fast the host chewed through them. Failed
// runs contribute no cycles.
type Agg struct {
	SimCycles    int64         // total simulated cycles across successful runs
	WallTime     time.Duration // wall-clock duration of the whole batch
	CyclesPerSec float64       // SimCycles / WallTime
}

func (a Agg) String() string {
	return fmt.Sprintf("%d cycles in %v (%.0f cycles/sec)",
		a.SimCycles, a.WallTime.Round(time.Millisecond), a.CyclesPerSec)
}

// cyclesPerSec is the simulation throughput of cycles simulated over a wall
// time, or 0 when no time has elapsed.
func cyclesPerSec(cycles int64, wall time.Duration) float64 {
	if sec := wall.Seconds(); sec > 0 {
		return float64(cycles) / sec
	}
	return 0
}

// aggOf totals the cycles of the runs that succeeded and stamps the wall
// time elapsed since start.
func aggOf(results []Result, errs []error, start time.Time) Agg {
	var cycles int64
	for i := range results {
		if errs[i] == nil {
			cycles += results[i].Cycles
		}
	}
	wall := time.Since(start)
	return Agg{SimCycles: cycles, WallTime: wall, CyclesPerSec: cyclesPerSec(cycles, wall)}
}

// RunManyAgg executes one simulation per config in a bounded worker pool and
// returns the results in input order plus the batch's aggregate
// simulated-cycles/sec. Each simulation is fully independent (its own
// simulator, PRNG streams and statistics), so the output is bit-identical to
// running them sequentially. workers <= 0 uses GOMAXPROCS. Configs that
// differ only by seed belong on the batch engine instead (NewBatch with
// ReplicaSeeds), which builds their shared network description once.
//
// Cancelling ctx stops dispatching new runs and interrupts in-flight ones;
// every run cut short contributes an error matching ErrCancelled.
//
// Partial-results contract: the returned slice always has len(cfgs) entries.
// When the error is non-nil it aggregates every failed run (errors.Join, each
// wrapped with its run index). A failed slot holds whatever partial Result its
// run produced before stopping (check Truncated), or the zero Result if the
// run never started, so callers must not consume results[i] without first
// checking the error.
func RunManyAgg(ctx context.Context, cfgs []Config, workers int) ([]Result, Agg, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s, err := New(cfgs[i])
				if err == nil {
					results[i], err = s.Run(ctx)
				}
				if err != nil {
					errs[i] = fmt.Errorf("sim: run %d: %w", i, err)
				}
			}
		}()
	}
dispatch:
	for i := range cfgs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Stop handing out work; everything not yet dispatched fails
			// uniformly so the joined error accounts for the whole batch.
			for j := i; j < len(cfgs); j++ {
				errs[j] = fmt.Errorf("sim: run %d not started: %w", j, runctl.Cancelled(ctx))
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return results, aggOf(results, errs, start), errors.Join(errs...)
}
