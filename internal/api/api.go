// Package api is the stable service-facing surface of the repo: the
// request/response schemas, validation rules and typed-error classification
// shared by the command-line tools (cmd/explink, cmd/expsim, cmd/expbench)
// and the placement daemon (cmd/explinkd via internal/serve).
//
// Before this layer each binary parsed and validated its inputs ad hoc; now
// one package owns the entry surface, so a flag set, an HTTP body and a
// stdio JSON line all funnel into the same structs and the same
// runctl.ErrConfig-typed rejections, and the daemon's JSON responses are
// byte-identical to the equivalent CLI output by construction (both sides
// call the same encoders).
//
// Each daemon operation is one entry of the Ops table, served at
// /v1/solve, /v1/eval, /v1/sim, /v1/exp and /v1/pareto over HTTP and under
// the same names over stdio. Schemas are versioned: SchemaVersion names the
// wire generation and is the endpoints' path prefix. Any change that can
// alter the meaning of an existing field must bump it.
package api

import (
	"fmt"

	"explink/internal/core"
	"explink/internal/runctl"
)

// SchemaVersion names the wire-format generation of every request and
// response type in this package. It doubles as the HTTP path prefix of the
// daemon's endpoints (/v1/solve, /v1/eval, /v1/sim, /v1/exp, /v1/pareto).
const SchemaVersion = "v1"

// Network-size bounds: the row model's distance matrices grow as n² and the
// simulator's route tables roughly as n⁴, so a much larger network exhausts
// memory, a fatal error that kills the whole process and every request in it.
const (
	// MaxN bounds SolveRequest, ParetoRequest and EvalRequest.
	MaxN = 1024
	// MaxSimN bounds SimRequest.
	MaxSimN = 64
)

// MaxReplicas bounds the seed replicas of one simulated operating point
// (SimRequest, ExpRequest and the CLIs' -replicas flags). A batch builds
// every replica before stepping any, so memory grows linearly with the count.
const MaxReplicas = 64

// configErr builds a validation error wrapping runctl.ErrConfig, so every
// rejected request classifies as Kind "config" (HTTP 400) via errors.Is
// regardless of which binary rejected it.
func configErr(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), runctl.ErrConfig)
}

// SolveRequest asks for an express-link placement: the paper's end-to-end
// flow (cmd/explink) as a service call. The zero value of every optional
// field selects the same default as the corresponding explink flag, so a
// request {"n":8} and `explink -n 8` describe the same solve.
type SolveRequest struct {
	// N is the network size (n x n routers).
	N int `json:"n"`
	// C is the link limit; 0 sweeps every feasible value and returns the best.
	C int `json:"c,omitempty"`
	// Algo is the placement algorithm: "D&C_SA" (default), "OnlySA" or
	// "InitOnly".
	Algo string `json:"algo,omitempty"`
	// Seed is the random seed; 0 means the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Moves overrides the SA move budget; 0 keeps the paper's schedule.
	Moves int `json:"moves,omitempty"`
	// BaseWidth is the link width in bits the bisection budget affords at
	// C=1; 0 means the paper's 256.
	BaseWidth int `json:"baseWidth,omitempty"`
	// WorstWeight blends the worst-case pair latency into the SA objective
	// (0 = the paper's average-only formulation).
	WorstWeight float64 `json:"worstWeight,omitempty"`
}

// Normalize fills defaulted fields in place, mirroring the explink flag
// defaults.
func (r *SolveRequest) Normalize() {
	orDefault(&r.Algo, string(core.DCSA))
	orDefault(&r.Seed, 1)
	orDefault(&r.BaseWidth, 256)
}

// orDefault sets *v to def when *v holds its zero value.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// Validate rejects malformed requests with runctl.ErrConfig-typed errors.
// Call Normalize first; validation treats the request as complete.
func (r *SolveRequest) Validate() error {
	if r.N < 2 || r.N > MaxN {
		return configErr("network size n=%d out of [2,%d]", r.N, MaxN)
	}
	if r.C < 0 {
		return configErr("link limit c=%d must be non-negative (0 sweeps all)", r.C)
	}
	switch core.Algorithm(r.Algo) {
	case core.DCSA, core.OnlySA, core.InitOnly:
	default:
		return configErr("unknown algorithm %q (want %s, %s or %s)",
			r.Algo, core.DCSA, core.OnlySA, core.InitOnly)
	}
	if r.Moves < 0 {
		return configErr("move budget %d must be non-negative", r.Moves)
	}
	if r.BaseWidth < 1 {
		return configErr("base width %d bits must be positive", r.BaseWidth)
	}
	if r.WorstWeight < 0 || r.WorstWeight > 1 {
		return configErr("worst-case blend %g out of [0,1]", r.WorstWeight)
	}
	return nil
}

// SimRequest asks for a simulator run — a single operating point, a replica
// group, or a saturation sweep — with the same vocabulary as the expsim
// flags. Zero values select the expsim defaults.
type SimRequest struct {
	// N is the network size (n x n routers).
	N int `json:"n"`
	// Topo is the topology family: "mesh" (default), "hfb", "fb" or "dcsa"
	// (solve an optimized placement first; rides the daemon's shared
	// placement store).
	Topo string `json:"topo,omitempty"`
	// Pattern is the traffic pattern: a synthetic name (UR, TP, BR, BC, SH,
	// TOR, NBR, hotspot) or a PARSEC benchmark name. Default "UR".
	Pattern string `json:"pattern,omitempty"`
	// Rate is the injection rate in packets/node/cycle; 0 means the expsim
	// default 0.02 (PARSEC patterns carry their own rate).
	Rate float64 `json:"rate,omitempty"`
	// Seed drives all randomness; 0 means the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Warmup, Measure and Drain are the phase lengths in cycles; zero fields
	// take the expsim defaults (2000, 10000, 40000).
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`
	Drain   int `json:"drain,omitempty"`
	// Replicas runs this many decorrelated seed replicas on the batched
	// engine and reports each plus the aggregate; 0 means 1, and at most
	// MaxReplicas.
	Replicas int `json:"replicas,omitempty"`
	// Saturate searches for the saturation throughput instead of running a
	// single operating point.
	Saturate bool `json:"saturate,omitempty"`
	// Audit enables the per-cycle invariant auditor.
	Audit bool `json:"audit,omitempty"`
}

// Normalize fills defaulted fields in place, mirroring the expsim flag
// defaults.
func (r *SimRequest) Normalize() {
	orDefault(&r.Topo, "mesh")
	orDefault(&r.Pattern, "UR")
	orDefault(&r.Rate, 0.02)
	orDefault(&r.Seed, 1)
	orDefault(&r.Warmup, 2000)
	orDefault(&r.Measure, 10000)
	orDefault(&r.Drain, 40000)
	orDefault(&r.Replicas, 1)
}

// Validate rejects malformed requests with runctl.ErrConfig-typed errors.
// Call Normalize first; validation treats the request as complete.
func (r *SimRequest) Validate() error {
	if r.N < 2 || r.N > MaxSimN {
		return configErr("network size n=%d out of [2,%d]", r.N, MaxSimN)
	}
	return ValidateSimParams(r.Warmup, r.Measure, r.Drain, r.Replicas, r.Rate)
}

// ValidateSimParams is the shared fail-fast check over the run-shape
// parameters every simulation entry point accepts (the expsim flags and
// SimRequest fields): phase lengths must be positive, the replica count must
// sit in [1, MaxReplicas] and the injection rate in [0, 1]. Downstream code
// tolerates some of these (a zero measure window divides throughput by zero,
// a zero replica count silently means one), so the boundary rejects them
// with runctl.ErrConfig instead of letting them misbehave later.
func ValidateSimParams(warmup, measure, drain, replicas int, rate float64) error {
	if warmup <= 0 {
		return configErr("warmup %d cycles must be positive", warmup)
	}
	if measure <= 0 {
		return configErr("measure %d cycles must be positive", measure)
	}
	if drain < 0 {
		return configErr("drain %d cycles must be non-negative", drain)
	}
	if err := ValidateReplicas(replicas); err != nil {
		return err
	}
	if rate < 0 || rate > 1 {
		return configErr("injection rate %g out of [0,1]", rate)
	}
	return nil
}

// ValidateReplicas rejects a replica count outside [1, MaxReplicas] with a
// runctl.ErrConfig-typed error.
func ValidateReplicas(replicas int) error {
	if replicas <= 0 || replicas > MaxReplicas {
		return configErr("replica count %d out of [1,%d]", replicas, MaxReplicas)
	}
	return nil
}

// ExpRequest asks for an experiment-suite run: the expbench entry surface as
// a service call. Experiments stream progress events and return their
// structured reports.
type ExpRequest struct {
	// Experiments selects registry entries by name; empty means every
	// registered experiment.
	Experiments []string `json:"experiments,omitempty"`
	// Quick shrinks budgets for a fast smoke run (the expbench -quick flag).
	Quick bool `json:"quick,omitempty"`
	// Seed is the shared random seed; 0 means the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Replicas runs every simulated operating point this many times; 0
	// means 1, and at most MaxReplicas.
	Replicas int `json:"replicas,omitempty"`
	// Parallel bounds how many experiments run concurrently; 0 means 1.
	Parallel int `json:"parallel,omitempty"`
}

// Normalize fills defaulted fields in place, mirroring the expbench flag
// defaults.
func (r *ExpRequest) Normalize() {
	orDefault(&r.Seed, 1)
	orDefault(&r.Replicas, 1)
	orDefault(&r.Parallel, 1)
}

// Validate rejects malformed requests, unknown experiment names included,
// with runctl.ErrConfig-typed errors.
func (r *ExpRequest) Validate() error {
	if err := ValidateReplicas(r.Replicas); err != nil {
		return err
	}
	if r.Parallel <= 0 {
		return configErr("parallelism %d must be positive", r.Parallel)
	}
	_, err := SelectExperiments(r.Experiments)
	return err
}
