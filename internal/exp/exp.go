// Package exp contains one driver per table and figure of the paper's
// evaluation (Section 5). Each driver computes the same rows/series the
// paper plots and returns them as a structured stats.Report (named tables
// plus notes and metadata) rendered by the shared stats renderer;
// EXPERIMENTS.md records the paper-vs-measured comparison. Drivers are
// registered declaratively — see All and Lookup in registry.go.
//
// Experiment index:
//
//	fig5        latency vs link limit C (Mesh, HFB, OnlySA, D&C_SA, L_D, L_S)
//	fig6        per-PARSEC-benchmark latency on 8x8 (simulated)
//	fig7        placement quality vs normalized runtime
//	fig8        synthetic traffic latency and throughput (simulated)
//	fig9        router power per benchmark (simulated + power model)
//	fig10       router static power breakdown
//	fig11       impact of bisection bandwidth (2K vs 8K Gb/s)
//	fig12       D&C_SA vs exhaustive optimal
//	table2      maximum zero-load packet latency
//	appspec     application-specific re-optimization (Section 5.6.4)
//	abgen       ablation: connection-matrix vs naive SA candidate generator (Section 4.4.2)
//	abroute     ablation: XY vs O1TURN routing (Section 4.2)
//	abbypass    ablation: physical express links vs pipeline bypass (Section 2.1)
//	bottleneck  channel-load analysis behind Fig. 8b's throughput gap (Section 5.4)
//	robust      extension: latency degradation under express-link failures
//	loadlat     load-latency curves connecting Fig. 8a and Fig. 8b
//	microarch   router sensitivity: VC count (Section 2.2) and buffer budget (Section 4.6)
//	frontier    extension: {L_avg x power} placement frontier across C
package exp

import (
	"context"

	"explink/internal/anneal"
	"explink/internal/core"
	"explink/internal/model"
	"explink/internal/topo"
)

// Options tunes experiment fidelity. Quick shrinks budgets and network sizes
// so the whole suite runs in seconds (used by tests); the default
// configuration reproduces the paper's operating points.
type Options struct {
	Quick bool
	Seed  uint64
	// Ctx bounds every solver and simulation run the experiment issues; nil
	// means context.Background(). Cancellation surfaces as an error matching
	// runctl.ErrCancelled from whichever driver was interrupted.
	Ctx context.Context
	// Audit runs every simulation with the per-cycle invariant auditor
	// enabled (sim.Config.Audit); results are bit-identical, just slower.
	Audit bool
	// Store, when non-nil, is attached to every solver the experiments build,
	// so placement solves shared across experiments (and across repeated runs
	// with an on-disk store) are computed exactly once. Results are
	// bit-identical with or without a store.
	Store *core.PlacementStore
	// Replicas runs every simulated operating point this many times with
	// decorrelated seeds and reports the across-replica aggregate
	// (sim.AggregateReplicas). Replica groups ride the batched replica
	// engine, so the extra samples share one network construction. 0 or 1
	// keeps the single-seed behaviour bit-identical.
	Replicas int
}

// DefaultOptions runs experiments at full fidelity.
func DefaultOptions() Options { return Options{Seed: 1} }

// ctx returns the run context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// solverFor builds a solver for an n x n network with the experiment's SA
// budget, routed through the shared placement store when one is set.
func (o Options) solverFor(n int) *core.Solver {
	s := core.NewSolver(model.DefaultConfig(n))
	s.Seed = o.Seed
	if o.Quick {
		s.Sched = s.Sched.WithMoves(1500)
	} else {
		s.Sched = anneal.DefaultSchedule()
	}
	s.Store = o.Store
	return s
}

// hfbEval scores the hybrid flattened butterfly at its own link budget.
func hfbEval(cfg model.Config) (topo.Row, model.Eval, error) {
	row := topo.HFBRow(cfg.N)
	c := row.MaxCrossSection()
	ev, err := cfg.EvalRow(row, c)
	return row, ev, err
}

// pct returns the percentage reduction of b relative to a.
func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (1 - b/a)
}
