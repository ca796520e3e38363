package fabric

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"explink/internal/api"
	"explink/internal/exp"
	"explink/internal/obs"
	"explink/internal/runctl"
)

// unit lifecycle states.
type unitState int

const (
	unitPending unitState = iota // waiting for a worker
	unitLeased                   // handed to a worker, deadline ticking
	unitDone                     // completed with a report
	unitFailed                   // completed with a terminal error
)

// unitSlot is the coordinator's bookkeeping for one unit.
type unitSlot struct {
	unit     exp.Unit
	state    unitState
	lease    string    // current lease id while leased
	worker   string    // who holds / held the lease
	deadline time.Time // lease expiry while leased
	entry    journalEntry
}

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Suite is the campaign to run (see SuiteOf).
	Suite Suite
	// JournalPath checkpoints completed units; "" disables resumability.
	JournalPath string
	// LeaseTTL is how long a lease survives without a heartbeat (default
	// 15s). Workers heartbeat at TTL/3, so a dead worker costs at most one
	// TTL of latency before its unit is re-issued.
	LeaseTTL time.Duration
	// RetryEvery is the poll delay suggested to workers when every remaining
	// unit is leased (default 500ms).
	RetryEvery time.Duration
	// Events, when non-nil, receives unit lifecycle events as JSON lines.
	Events *obs.EventWriter
	// Reg, when non-nil, receives the coordinator's fabric_* metrics.
	Reg *obs.Registry
}

// Coordinator owns one campaign: it decomposes the suite into units, leases
// them with heartbeat-extended deadlines, reclaims expired leases, journals
// completions, and merges outcomes. All methods are safe for concurrent use;
// the Lease/Heartbeat/Complete triple matches the worker Client interface,
// so in-process workers can drive a Coordinator directly while remote
// workers go through the /v1/work HTTP surface.
type Coordinator struct {
	suite Suite
	sel   []exp.Experiment
	ttl   time.Duration
	retry time.Duration
	epoch string // lease-id nonce: leases never survive a coordinator restart
	ev    *obs.EventWriter
	met   fabricMetrics

	mu        sync.Mutex
	units     []unitSlot
	journal   *journal
	leaseSeq  int64
	remaining int // non-terminal units
	resumed   int // units restored from the journal at open
	done      chan struct{}

	now func() time.Time // injectable clock for tests
}

// fabricMetrics are the coordinator's exported instruments; every field is
// nil-safe, so an unregistered coordinator pays nothing.
type fabricMetrics struct {
	leases    *obs.Counter // fabric_leases_total
	expired   *obs.Counter // fabric_lease_expired_total
	completed *obs.Counter // fabric_completed_total
	failed    *obs.Counter // fabric_failed_total
	requeued  *obs.Counter // fabric_requeued_total
	stale     *obs.Counter // fabric_stale_total
	remaining *obs.Gauge   // fabric_units_remaining
}

// NewCoordinator builds a coordinator for cfg.Suite, resuming from the
// journal when one exists. Resumed units are terminal immediately: they are
// never re-leased, and their results flow into the merged outcome list
// exactly as if they had completed in this incarnation.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	sel, err := cfg.Suite.selection()
	if err != nil {
		return nil, err
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("fabric: empty suite: %w", runctl.ErrConfig)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 500 * time.Millisecond
	}
	j, entries, err := openJournal(cfg.JournalPath, cfg.Suite)
	if err != nil {
		return nil, err
	}
	var nonce [6]byte
	rand.Read(nonce[:])
	c := &Coordinator{
		suite:     cfg.Suite,
		sel:       sel,
		ttl:       cfg.LeaseTTL,
		retry:     cfg.RetryEvery,
		epoch:     hex.EncodeToString(nonce[:]),
		ev:        cfg.Events,
		journal:   j,
		remaining: len(sel),
		done:      make(chan struct{}),
		now:       time.Now,
	}
	if cfg.Reg != nil {
		c.met = fabricMetrics{
			leases:    cfg.Reg.Counter("fabric_leases_total", "work-unit leases granted"),
			expired:   cfg.Reg.Counter("fabric_lease_expired_total", "leases reclaimed after heartbeat loss"),
			completed: cfg.Reg.Counter("fabric_completed_total", "units completed with a report"),
			failed:    cfg.Reg.Counter("fabric_failed_total", "units completed with a terminal error"),
			requeued:  cfg.Reg.Counter("fabric_requeued_total", "units re-queued after a cancelled worker run"),
			stale:     cfg.Reg.Counter("fabric_stale_total", "completions discarded because the unit already finished"),
			remaining: cfg.Reg.Gauge("fabric_units_remaining", "units not yet terminal"),
		}
	}
	c.units = make([]unitSlot, len(sel))
	for i, u := range exp.DecomposeSuite(sel) {
		c.units[i] = unitSlot{unit: u}
	}
	for _, e := range entries {
		slot := &c.units[e.Seq]
		if slot.state == unitDone || slot.state == unitFailed {
			continue // duplicate journal line: first wins
		}
		slot.entry = e
		slot.state = unitDone
		if e.Error != nil {
			slot.state = unitFailed
		}
		c.remaining--
		c.resumed++
	}
	c.met.remaining.Set(int64(c.remaining))
	if c.remaining == 0 {
		close(c.done)
	}
	return c, nil
}

// Resumed reports how many units were restored from the journal at startup.
func (c *Coordinator) Resumed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// Counts reports the live unit-state tallies (pending, leased, done, failed).
func (c *Coordinator) Counts() (pending, leased, done, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired()
	for i := range c.units {
		switch c.units[i].state {
		case unitPending:
			pending++
		case unitLeased:
			leased++
		case unitDone:
			done++
		case unitFailed:
			failed++
		}
	}
	return
}

// reclaimExpired returns timed-out leases to the pending pool. Called with
// c.mu held; reclamation is lazy (on lease/heartbeat/count traffic), which
// is enough because a starved pool is always being polled by the workers
// that would drain it.
func (c *Coordinator) reclaimExpired() {
	now := c.now()
	for i := range c.units {
		s := &c.units[i]
		if s.state == unitLeased && now.After(s.deadline) {
			c.met.expired.Inc()
			c.ev.Emit("unit.expired", map[string]any{"seq": s.unit.Seq, "name": s.unit.Exp.Name, "worker": s.worker})
			s.state = unitPending
			s.lease = ""
			s.worker = ""
		}
	}
}

// Lease implements the worker protocol: grant the first pending unit in
// sequence order, say "wait" while everything is leased elsewhere, "done"
// once every unit is terminal.
func (c *Coordinator) Lease(_ context.Context, worker string) (api.WorkLeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired()
	if c.remaining == 0 {
		return api.WorkLeaseResponse{Status: api.WorkStatusDone, SuiteID: c.suite.Fingerprint()}, nil
	}
	for i := range c.units {
		s := &c.units[i]
		if s.state != unitPending {
			continue
		}
		c.leaseSeq++
		s.state = unitLeased
		s.lease = fmt.Sprintf("%s-%d-%d", c.epoch, s.unit.Seq, c.leaseSeq)
		s.worker = worker
		s.deadline = c.now().Add(c.ttl)
		c.met.leases.Inc()
		c.ev.Emit("unit.lease", map[string]any{"seq": s.unit.Seq, "name": s.unit.Exp.Name, "worker": worker, "lease": s.lease})
		return api.WorkLeaseResponse{
			Status:     api.WorkStatusUnit,
			Unit:       c.suite.unitOf(s.unit),
			Lease:      s.lease,
			TTLSeconds: c.ttl.Seconds(),
			SuiteID:    c.suite.Fingerprint(),
		}, nil
	}
	return api.WorkLeaseResponse{
		Status:       api.WorkStatusWait,
		RetrySeconds: c.retry.Seconds(),
		SuiteID:      c.suite.Fingerprint(),
	}, nil
}

// Heartbeat extends a live lease's deadline. An unknown lease (expired and
// reclaimed, or from a previous coordinator incarnation) tells the worker to
// abandon the run.
func (c *Coordinator) Heartbeat(_ context.Context, lease string) (api.WorkHeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired()
	for i := range c.units {
		s := &c.units[i]
		if s.state == unitLeased && s.lease == lease {
			s.deadline = c.now().Add(c.ttl)
			return api.WorkHeartbeatResponse{Status: api.WorkStatusOK, TTLSeconds: c.ttl.Seconds()}, nil
		}
	}
	return api.WorkHeartbeatResponse{Status: api.WorkStatusUnknown}, nil
}

// Complete records one finished unit. Completion is deliberately
// lease-agnostic: results are deterministic, so a correct result from an
// expired lease is still a correct result — the first completion of a unit
// wins and later ones are acknowledged as stale. A completion whose error
// classifies as cancelled (the worker was drained mid-run, not the
// experiment failing) re-queues the unit instead of failing the suite.
func (c *Coordinator) Complete(_ context.Context, req api.WorkCompleteRequest) (api.WorkCompleteResponse, error) {
	if err := req.Validate(); err != nil {
		return api.WorkCompleteResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Seq >= len(c.units) || c.units[req.Seq].unit.Exp.Name != req.Name {
		return api.WorkCompleteResponse{}, fmt.Errorf(
			"completion for unknown unit %d (%s): %w", req.Seq, req.Name, runctl.ErrConfig)
	}
	s := &c.units[req.Seq]
	if s.state == unitDone || s.state == unitFailed {
		c.met.stale.Inc()
		return api.WorkCompleteResponse{Status: api.WorkStatusStale, Done: c.remaining == 0}, nil
	}
	if req.Error != nil && req.Error.Kind == "cancelled" {
		c.met.requeued.Inc()
		c.ev.Emit("unit.requeue", map[string]any{"seq": s.unit.Seq, "name": s.unit.Exp.Name, "error": req.Error.Message})
		s.state = unitPending
		s.lease = ""
		s.worker = ""
		return api.WorkCompleteResponse{Status: api.WorkStatusAccepted}, nil
	}
	entry := journalEntry{Seq: req.Seq, Name: req.Name, Seconds: req.Seconds, Report: req.Report, Error: req.Error}
	if err := c.journal.append(entry); err != nil {
		// The journal is the resume contract: refuse the completion so the
		// worker retries and the checkpoint never silently loses a unit.
		return api.WorkCompleteResponse{}, err
	}
	s.entry = entry
	s.state = unitDone
	if req.Error != nil {
		s.state = unitFailed
		c.met.failed.Inc()
	} else {
		c.met.completed.Inc()
	}
	s.lease = ""
	c.remaining--
	c.met.remaining.Set(int64(c.remaining))
	c.ev.Emit("unit.complete", map[string]any{
		"seq": s.unit.Seq, "name": s.unit.Exp.Name, "seconds": req.Seconds, "failed": req.Error != nil})
	if c.remaining == 0 {
		close(c.done)
		c.ev.Emit("suite.done", map[string]any{"experiments": len(c.units)})
	}
	return api.WorkCompleteResponse{Status: api.WorkStatusAccepted, Done: c.remaining == 0}, nil
}

// WaitDone blocks until every unit is terminal or ctx dies (returning an
// error matching runctl.ErrCancelled).
func (c *Coordinator) WaitDone(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return runctl.Cancelled(ctx)
	}
}

// Done reports whether every unit is terminal.
func (c *Coordinator) Done() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Outcomes merges the recorded completions into the registry-order outcome
// list a local exp.RunAll would have produced: reports round-trip through
// their journal JSON (deterministically — the report schema is all strings
// and shortest-round-trip floats), errors reconstruct their runctl taxonomy
// classification, and units that never completed fail as cancelled.
func (c *Coordinator) Outcomes() ([]exp.Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := make(map[int]exp.Outcome, len(c.units))
	for i := range c.units {
		s := &c.units[i]
		switch s.state {
		case unitDone:
			rep, err := decodeReport(s.entry.Report)
			if err != nil {
				return nil, fmt.Errorf("fabric: unit %d (%s): %w", s.unit.Seq, s.unit.Exp.Name, err)
			}
			got[s.unit.Seq] = exp.Outcome{Rep: rep, Elapsed: time.Duration(s.entry.Seconds * float64(time.Second))}
		case unitFailed:
			got[s.unit.Seq] = exp.Outcome{Err: s.entry.Error.Err(), Elapsed: time.Duration(s.entry.Seconds * float64(time.Second))}
		}
	}
	return exp.MergeOutcomes(exp.DecomposeSuite(c.sel), got), nil
}

// Close releases the journal.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journal.Close()
}
