package api

import "encoding/json"

// Work-distribution schemas: the wire surface of the sweep fabric
// (internal/fabric). A coordinator decomposes an experiment suite into work
// units and serves them at POST /v1/work/lease, /v1/work/heartbeat and
// /v1/work/complete; workers are thin loops that lease a unit, run it
// through the same experiment registry a local expbench run uses, and stream
// the outcome back. Like every schema in this package, the types are
// versioned under SchemaVersion and validate with runctl.ErrConfig-typed
// rejections.

// Lease statuses returned by WorkLeaseResponse.Status.
const (
	// WorkStatusUnit grants a unit: Unit, Lease and TTLSeconds are set.
	WorkStatusUnit = "unit"
	// WorkStatusWait reports that every remaining unit is leased to someone
	// else; retry after RetrySeconds.
	WorkStatusWait = "wait"
	// WorkStatusDone reports that every unit is terminal; the worker can
	// exit.
	WorkStatusDone = "done"
)

// WorkUnit is one leased shard of a suite on the wire: the experiment to run
// plus the suite-wide fidelity knobs, self-contained so a worker needs no
// other configuration channel.
type WorkUnit struct {
	// Seq is the unit's sequence number in the suite (registry order).
	Seq int `json:"seq"`
	// Name is the experiment registry name (see exp.Lookup).
	Name string `json:"name"`
	// Quick, Seed and Replicas mirror the ExpRequest fields of the suite the
	// unit was decomposed from.
	Quick    bool   `json:"quick,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Replicas int    `json:"replicas,omitempty"`
}

// WorkLeaseRequest asks the coordinator for a unit.
type WorkLeaseRequest struct {
	// Worker self-identifies the requester (hostname:pid style); it labels
	// leases in logs and metrics but carries no authority.
	Worker string `json:"worker,omitempty"`
}

// Normalize fills defaulted fields in place.
func (r *WorkLeaseRequest) Normalize() { orDefault(&r.Worker, "anonymous") }

// Validate rejects malformed requests with runctl.ErrConfig-typed errors.
func (r *WorkLeaseRequest) Validate() error {
	if len(r.Worker) > 256 {
		return configErr("worker id longer than 256 bytes")
	}
	return nil
}

// WorkLeaseResponse answers a lease request. Exactly one of the three
// statuses above is set; SuiteID fingerprints the coordinator's suite so a
// worker pointed at the wrong coordinator fails loudly instead of running
// mismatched units.
type WorkLeaseResponse struct {
	Status string    `json:"status"`
	Unit   *WorkUnit `json:"unit,omitempty"`
	// Lease is the opaque lease id the worker must heartbeat and complete
	// with (WorkStatusUnit only).
	Lease string `json:"lease,omitempty"`
	// TTLSeconds is how long the lease lives without a heartbeat; workers
	// should heartbeat a few times per TTL.
	TTLSeconds float64 `json:"ttlSeconds,omitempty"`
	// RetrySeconds is the suggested poll delay for WorkStatusWait.
	RetrySeconds float64 `json:"retrySeconds,omitempty"`
	// SuiteID is the suite fingerprint (sha256 over the canonical suite
	// preimage).
	SuiteID string `json:"suiteId,omitempty"`
}

// WorkHeartbeatRequest extends a lease.
type WorkHeartbeatRequest struct {
	Lease string `json:"lease"`
}

// Validate rejects malformed requests with runctl.ErrConfig-typed errors.
func (r *WorkHeartbeatRequest) Validate() error {
	if r.Lease == "" {
		return configErr("heartbeat without a lease id")
	}
	return nil
}

// Heartbeat and completion statuses.
const (
	// WorkStatusOK acknowledges a heartbeat: the lease deadline was extended.
	WorkStatusOK = "ok"
	// WorkStatusUnknown reports a lease the coordinator no longer tracks
	// (expired and reassigned, or from a previous coordinator incarnation).
	// The worker should abandon the unit run — its result is no longer
	// wanted from this lease, though a completion will still be accepted if
	// the unit has not finished elsewhere.
	WorkStatusUnknown = "unknown"
	// WorkStatusAccepted acknowledges a completion that was recorded.
	WorkStatusAccepted = "accepted"
	// WorkStatusStale acknowledges a completion for a unit that already
	// finished elsewhere; the result was discarded (results are
	// deterministic, so nothing is lost).
	WorkStatusStale = "stale"
)

// WorkHeartbeatResponse answers a heartbeat.
type WorkHeartbeatResponse struct {
	Status     string  `json:"status"`
	TTLSeconds float64 `json:"ttlSeconds,omitempty"`
}

// WorkCompleteRequest reports one finished unit: either a structured report
// (success) or a classified error. A kind "cancelled" error marks a worker
// drained mid-run — the coordinator re-queues the unit instead of failing
// the suite.
type WorkCompleteRequest struct {
	Lease string `json:"lease,omitempty"`
	Seq   int    `json:"seq"`
	Name  string `json:"name"`
	// Seconds is the unit's wall time on the worker.
	Seconds float64 `json:"seconds,omitempty"`
	// Report is the sanitized stats.Report JSON of a successful run.
	Report json.RawMessage `json:"report,omitempty"`
	// Error classifies a failed run.
	Error *ErrorBody `json:"error,omitempty"`
}

// Validate rejects malformed requests with runctl.ErrConfig-typed errors.
func (r *WorkCompleteRequest) Validate() error {
	if r.Seq < 0 {
		return configErr("unit seq %d must be non-negative", r.Seq)
	}
	if r.Name == "" {
		return configErr("completion without an experiment name")
	}
	if (len(r.Report) == 0) == (r.Error == nil) {
		return configErr("completion must carry exactly one of report or error")
	}
	return nil
}

// WorkCompleteResponse acknowledges a completion. Done lets the completing
// worker exit without another lease round-trip when its unit was the last.
type WorkCompleteResponse struct {
	Status string `json:"status"`
	Done   bool   `json:"done,omitempty"`
}
