package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"explink/internal/runctl"
)

// forEachIndex runs fn(i) for every i in [0, n) on a bounded worker pool, in
// the style of sim.RunMany. Results must be written to index-addressed slots
// by fn, so the output is bit-identical for any worker count; all errors are
// collected in index order, prefixed "core: <label(i)>: " and aggregated with
// errors.Join (nil when every call succeeds). Cancelling ctx stops
// dispatching; every index not yet started fails with "core: <label(i)> not
// started", matching runctl.ErrCancelled. workers <= 0 uses GOMAXPROCS.
func forEachIndex(ctx context.Context, n, workers int, label func(i int) string, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	notStarted := func(i int) error {
		return fmt.Errorf("core: %s not started: %w", label(i), runctl.Cancelled(ctx))
	}
	run := func(i int) {
		if err := fn(i); err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", label(i), err)
		}
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				errs[i] = notStarted(i)
				continue
			}
			run(i)
		}
		return errors.Join(errs...)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				errs[j] = notStarted(j)
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}
