package api

import (
	"explink/internal/sim"
	"explink/internal/stats"
)

// SimResponse is the result of one SimRequest. Exactly one of Result,
// Replicas (+Aggregate) or Sweep is populated, matching the request shape.
// Error rides alongside partial data when the run stopped early (drain,
// deadline, deadlock): the embedded results carry their Truncated reasons,
// so a drained daemon still returns everything it measured.
type SimResponse struct {
	// Result is the single-run result (Replicas <= 1, Saturate false).
	Result *sim.Result `json:"result,omitempty"`
	// Replicas are the per-replica results and Aggregate their across-replica
	// summary (Replicas > 1).
	Replicas  []sim.Result `json:"replicas,omitempty"`
	Aggregate *sim.Result  `json:"aggregate,omitempty"`
	// Sweep is the saturation search outcome (Saturate true).
	Sweep *sim.SweepResult `json:"sweep,omitempty"`
	// Error classifies an early stop; partial results above remain valid.
	Error *ErrorBody `json:"error,omitempty"`
}

// Partial reports whether the response carries any measured data, which is
// what decides between "error with partial results" (HTTP 200 + Error) and a
// plain error status.
func (r SimResponse) Partial() bool {
	if r.Result != nil && r.Result.Cycles > 0 {
		return true
	}
	if len(r.Replicas) > 0 || r.Aggregate != nil {
		return true
	}
	return r.Sweep != nil && len(r.Sweep.Points) > 0
}

// ExpOutcome is one experiment's slot in an ExpResult: either a structured
// report or a classified error (e.g. kind "cancelled" with the experiment's
// truncation reason when a drain interrupted the suite).
type ExpOutcome struct {
	Name    string        `json:"name"`
	Section string        `json:"section,omitempty"`
	Seconds float64       `json:"seconds"`
	Report  *stats.Report `json:"report,omitempty"`
	Error   *ErrorBody    `json:"error,omitempty"`
}

// ExpResult is the terminal payload of an experiment-suite run: every
// outcome in registry order plus the failure count. A drained suite reports
// the finished experiments' reports and "cancelled"-kind errors for the
// rest — partial results, never silence.
type ExpResult struct {
	Experiments int          `json:"experiments"`
	Failed      int          `json:"failed"`
	Outcomes    []ExpOutcome `json:"outcomes"`
}
