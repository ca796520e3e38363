package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/obs"
	"explink/internal/runctl"
	"explink/internal/stats"
)

// Client is the worker's view of a coordinator: the lease/heartbeat/complete
// triple. *Coordinator implements it directly (in-process workers), and
// HTTPClient implements it over the /v1/work endpoints (remote workers) —
// the worker loop cannot tell the difference.
type Client interface {
	Lease(ctx context.Context, worker string) (api.WorkLeaseResponse, error)
	Heartbeat(ctx context.Context, lease string) (api.WorkHeartbeatResponse, error)
	Complete(ctx context.Context, req api.WorkCompleteRequest) (api.WorkCompleteResponse, error)
}

// Worker is one sweep-fabric executor: a thin loop that leases units, runs
// them through the shared experiment registry, and streams outcomes back.
// Zero fields take defaults; Client is required.
type Worker struct {
	// Client reaches the coordinator.
	Client Client
	// ID self-identifies the worker in leases and logs.
	ID string
	// Store is the local placement cache, typically opened on a -cache-dir
	// shared by the whole fleet: content addressing makes every worker's
	// solves visible to every other worker for free.
	Store *core.PlacementStore
	// Events, when non-nil, receives worker lifecycle events as JSON lines.
	Events *obs.EventWriter
	// MaxFailures bounds consecutive coordinator round-trip failures before
	// the worker gives up (default 10; the backoff between attempts makes
	// that roughly half a minute of coordinator absence).
	MaxFailures int
}

// Run leases and executes units until the coordinator reports the suite
// done (nil), ctx dies (an error matching runctl.ErrCancelled — the unit in
// flight completes as cancelled first, so the coordinator re-queues it
// immediately instead of waiting out the lease), or the coordinator stays
// unreachable past MaxFailures.
func (w *Worker) Run(ctx context.Context) error {
	maxFailures := w.MaxFailures
	if maxFailures <= 0 {
		maxFailures = 10
	}
	failures := 0
	for {
		if ctx.Err() != nil {
			return runctl.Cancelled(ctx)
		}
		resp, err := w.Client.Lease(ctx, w.ID)
		if err != nil {
			failures++
			if failures >= maxFailures {
				return fmt.Errorf("fabric: worker %s: coordinator unreachable after %d attempts: %w", w.ID, failures, err)
			}
			if !sleepCtx(ctx, backoff(failures)) {
				return runctl.Cancelled(ctx)
			}
			continue
		}
		failures = 0
		switch resp.Status {
		case api.WorkStatusDone:
			w.Events.Emit("worker.done", map[string]any{"worker": w.ID})
			return nil
		case api.WorkStatusWait:
			delay := time.Duration(resp.RetrySeconds * float64(time.Second))
			if delay <= 0 {
				delay = 500 * time.Millisecond
			}
			if !sleepCtx(ctx, delay) {
				return runctl.Cancelled(ctx)
			}
		case api.WorkStatusUnit:
			done, err := w.runUnit(ctx, resp)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		default:
			return fmt.Errorf("fabric: worker %s: unknown lease status %q", w.ID, resp.Status)
		}
	}
}

// runUnit executes one leased unit under a heartbeat, then reports the
// outcome (retrying the completion RPC — it is the one message that must
// not be lost while the coordinator lives). The bool reports whether the
// coordinator declared the suite done with this completion.
func (w *Worker) runUnit(ctx context.Context, lease api.WorkLeaseResponse) (bool, error) {
	unit := lease.Unit
	w.Events.Emit("worker.unit", map[string]any{"worker": w.ID, "seq": unit.Seq, "name": unit.Name})

	e, ok := exp.Lookup(unit.Name)
	var oc exp.Outcome
	if !ok {
		oc = exp.Outcome{Err: fmt.Errorf("unknown experiment %q: %w", unit.Name, runctl.ErrConfig)}
	} else {
		// The run context is the worker context plus lease loss: when the
		// coordinator no longer recognizes the lease (expired and reassigned,
		// or a coordinator restart), finishing the run would waste work that
		// someone else now owns, so the heartbeat loop cancels it.
		runCtx, cancel := context.WithCancelCause(ctx)
		stopHB := w.startHeartbeat(runCtx, cancel, lease)
		opts := exp.DefaultOptions()
		opts.Quick = unit.Quick
		opts.Seed = unit.Seed
		opts.Replicas = unit.Replicas
		opts.Store = w.Store
		oc = exp.RunUnit(runCtx, exp.Unit{Seq: unit.Seq, Exp: e}, opts)
		stopHB()
		cancel(nil)
	}

	req := api.WorkCompleteRequest{Lease: lease.Lease, Seq: unit.Seq, Name: unit.Name, Seconds: oc.Elapsed.Seconds()}
	if oc.Err != nil {
		req.Error = api.ErrorBodyOf(oc.Err)
	} else {
		raw, _, err := stats.MarshalSanitized(oc.Rep)
		if err != nil {
			req.Error = api.ErrorBodyOf(err)
		} else {
			req.Report = raw
		}
	}

	// The completion retry loop deliberately ignores ctx for a bounded
	// window: a drained worker still wants its cancelled completion
	// delivered so the coordinator re-queues the unit now rather than after
	// a lease timeout.
	var lastErr error
	for attempt := 1; attempt <= 5; attempt++ {
		resp, err := w.Client.Complete(context.Background(), req)
		if err == nil {
			w.Events.Emit("worker.complete", map[string]any{
				"worker": w.ID, "seq": unit.Seq, "name": unit.Name,
				"failed": req.Error != nil, "status": resp.Status})
			return resp.Done, nil
		}
		lastErr = err
		time.Sleep(backoff(attempt))
	}
	return false, fmt.Errorf("fabric: worker %s: completion of unit %d lost: %w", w.ID, unit.Seq, lastErr)
}

// startHeartbeat keeps the lease alive at TTL/3 cadence while the unit runs;
// it cancels the run (cause: cancelled) when the coordinator disowns the
// lease. The returned stop function halts the loop.
func (w *Worker) startHeartbeat(ctx context.Context, cancel context.CancelCauseFunc, lease api.WorkLeaseResponse) func() {
	ttl := time.Duration(lease.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				resp, err := w.Client.Heartbeat(ctx, lease.Lease)
				if err == nil && resp.Status == api.WorkStatusUnknown {
					cancel(fmt.Errorf("fabric: lease %s disowned by coordinator: %w", lease.Lease, runctl.ErrCancelled))
					return
				}
				// Transport errors are tolerated: the lease TTL is the
				// authority on liveness, and a transient coordinator blip
				// should not abort a nearly-finished solve.
			}
		}
	}()
	return func() { close(stop) }
}

// backoff is the retry delay after the attempt-th consecutive failure,
// linear and capped at 5s. It runs when a remote worker cannot reach its
// coordinator (`expsweep -worker -connect` to a coordinator that is down).
func backoff(attempt int) time.Duration {
	d := time.Duration(attempt) * 500 * time.Millisecond
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// sleepCtx sleeps d or until ctx dies, reporting whether the full sleep
// happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// decodeReport parses a journaled report back into its structured form.
func decodeReport(raw json.RawMessage) (*stats.Report, error) {
	var rep stats.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("corrupt report: %w", err)
	}
	return &rep, nil
}
