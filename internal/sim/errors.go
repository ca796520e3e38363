package sim

import (
	"fmt"

	"explink/internal/runctl"
)

// The run-control sentinels are defined in internal/runctl (shared with the
// optimizer packages) and re-exported here so simulator callers match them as
// sim.ErrX. All of them are classified with errors.Is:
//
//	res, err := s.Run(ctx)
//	switch {
//	case errors.Is(err, sim.ErrCancelled): // ctx deadline/cancel; res is partial
//	case errors.Is(err, sim.ErrDeadlock):  // no progress; err carries a dump
//	case errors.Is(err, sim.ErrAudit):     // Config.Audit caught a violation
//	}
var (
	ErrCancelled = runctl.ErrCancelled
	ErrDeadlock  = runctl.ErrDeadlock
	ErrUnstable  = runctl.ErrUnstable
	ErrAudit     = runctl.ErrAudit
	ErrConfig    = runctl.ErrConfig
)

// DeadlockError is returned by Run on deadlock suspicion. Beyond matching
// ErrDeadlock, it carries the cycle the run gave up at and a diagnostic dump
// naming the blocked routers, ports and VCs and the credit each is waiting
// on (see Simulator.deadlockReport).
type DeadlockError struct {
	Cycle  int64  // cycle the run stopped at
	Stall  int64  // cycles since the last flit movement
	Report string // per-VC dump of blocked traffic
}

// Error and Unwrap run only when a run deadlocks, which no valid
// configuration does; the sim tests provoke one.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: %v at cycle %d (no progress for %d cycles)\n%s",
		ErrDeadlock, e.Cycle, e.Stall, e.Report)
}

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// AuditError is returned by Run when Config.Audit is set and a per-cycle
// invariant check fails. The run fails fast: Cycle is the first cycle on
// which Invariant did not hold.
type AuditError struct {
	Cycle     int64
	Invariant string // "flit-conservation", "credit-conservation", "active-set", "route-monotonicity"
	Detail    string
}

// Error and Unwrap run only when an audited run breaks an invariant, which
// working code never does; the sim tests inject the faults.
func (e *AuditError) Error() string {
	return fmt.Sprintf("sim: audit: %s violated at cycle %d: %s", e.Invariant, e.Cycle, e.Detail)
}

func (e *AuditError) Unwrap() error { return ErrAudit }
