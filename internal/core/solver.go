// Package core implements the paper's primary contribution end to end: given
// a network size and a bisection-bandwidth budget, it enumerates the feasible
// link limits C (Section 4.1), solves the one-dimensional placement problem
// P̃(n, C) for each — with the divide-and-conquer initial solution feeding
// the connection-matrix simulated annealing (D&C_SA), or with a random
// initial state (the OnlySA ablation) — and picks the C whose placement
// minimizes the overall average packet latency L_avg = L_D,avg + L_S,avg.
//
// It also implements the application-specific variant of Section 5.6.4,
// which re-optimizes each row and column against a measured traffic matrix.
package core

import (
	"context"
	"fmt"
	"time"

	"explink/internal/anneal"
	"explink/internal/dnc"
	"explink/internal/model"
	"explink/internal/runctl"
	"explink/internal/stats"
	"explink/internal/topo"
)

// Algorithm selects the placement strategy.
type Algorithm string

const (
	// DCSA is the proposed scheme: divide-and-conquer initial solution plus
	// connection-matrix simulated annealing.
	DCSA Algorithm = "D&C_SA"
	// OnlySA is the ablation: the same annealing from a random initial state.
	OnlySA Algorithm = "OnlySA"
	// InitOnly stops after the divide-and-conquer initial solution; it
	// exposes the quality of I(n, C) alone.
	InitOnly Algorithm = "InitOnly"
)

// Solver configures the optimization.
type Solver struct {
	Cfg   model.Config
	Sched anneal.Schedule
	Seed  uint64
	// WorstWeight blends the worst-case pair latency into the SA objective:
	// 0 (the paper's formulation) minimizes the average alone; 1 minimizes
	// the worst pair alone. Intermediate values trade the two, an extension
	// useful when tail latency matters (Table 2's metric).
	WorstWeight float64
	// Workers bounds how many sub-problems Optimize (one per feasible C) and
	// SolveWeighted (one per row/column line) solve concurrently; <= 0 uses
	// GOMAXPROCS. Every sub-problem draws from its own rngFor stream, so the
	// output is bit-identical for any worker count, including 1.
	Workers int
	// Store, when non-nil, routes every row and weighted-line solve through
	// a shared content-addressed placement cache: a repeated solve with the
	// same canonical key (n, C, bandwidth, mix, params, weights, algorithm,
	// seed, schedule) returns the cached, bit-identical solution instead of
	// re-running SA. Workers is not part of the key — output never depends
	// on it.
	Store *PlacementStore
}

// NewSolver returns a solver with the paper's default SA schedule.
func NewSolver(cfg model.Config) *Solver {
	return &Solver{Cfg: cfg, Sched: anneal.DefaultSchedule(), Seed: 1}
}

// RowSolution is the outcome of solving P̃(n, C) for one link limit.
type RowSolution struct {
	Algo  Algorithm
	C     int
	Row   topo.Row
	Eval  model.Eval // full-network latency of the replicated placement
	Evals int64      // total placement evaluations (initial generation + SA)
}

func (r RowSolution) String() string {
	return fmt.Sprintf("%s %v -> %v (%d evals)", r.Algo, r.Row, r.Eval, r.Evals)
}

// moveObjective builds the SA objective: the average row head latency, with
// an optional worst-case blend (see Solver.WorstWeight). It owns routing
// state, so it must stay on one goroutine; SolveRow builds one per
// invocation.
func (s *Solver) moveObjective() *model.IncObjective {
	return model.NewIncObjective(s.Cfg.Params).WithWorstBlend(s.WorstWeight)
}

// rng derives a deterministic stream per (C, algorithm, salt) so solutions
// for different limits and lines are independent yet reproducible.
func (s *Solver) rngFor(c int, algo Algorithm, salt uint64) *stats.RNG {
	parts := []uint64{s.Seed, uint64(c), salt}
	for _, b := range []byte(algo) {
		parts = append(parts, uint64(b))
	}
	return stats.NewRNG(stats.MixSeed(parts...))
}

func (s *Solver) rng(c int, algo Algorithm) *stats.RNG { return s.rngFor(c, algo, 0) }

// SolveRow solves P̃(n, C) with the chosen algorithm and scores the resulting
// placement on the full network. Cancelling ctx cuts the annealing short and
// fails the solve with an error matching runctl.ErrCancelled — a truncated
// search result would silently misrank the link limits in Optimize. With a
// Store attached the solve is answered from the cache when possible; errors
// (including cancellation) are never cached.
func (s *Solver) SolveRow(ctx context.Context, c int, algo Algorithm) (RowSolution, error) {
	if s.Store == nil {
		return s.solveRowUncached(ctx, c, algo)
	}
	sp, _, err := s.Store.GetOrCompute(s.rowKey(c, algo), func() (StoredPlacement, error) {
		sol, err := s.solveRowUncached(ctx, c, algo)
		if err != nil {
			return StoredPlacement{}, err
		}
		return storedFromSolution(sol), nil
	})
	if err != nil {
		return RowSolution{}, err
	}
	return sp.RowSolution(), nil
}

func (s *Solver) solveRowUncached(ctx context.Context, c int, algo Algorithm) (RowSolution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := s.Cfg.Validate(); err != nil {
		return RowSolution{}, err
	}
	if _, err := s.Cfg.BW.Width(c); err != nil {
		return RowSolution{}, err
	}
	n := s.Cfg.N

	var row topo.Row
	var evals int64
	switch algo {
	case DCSA, InitOnly:
		init := dnc.Initial(n, c, s.Cfg.Params)
		evals = init.Evals
		row = init.Row
		if algo == DCSA {
			m, err := topo.MatrixFromRow(init.Row, c)
			if err != nil {
				return RowSolution{}, fmt.Errorf("core: encoding initial solution: %w", err)
			}
			// The annealer tracks best-so-far starting from the initial
			// state, so its result is never worse than the D&C placement
			// under the active objective.
			res := anneal.MinimizePareto(ctx, m, s.moveObjective(), anneal.ParetoOpts{}, s.Sched, s.rng(c, algo))
			evals += res.Evals
			row = res.Entries[0].Row
		}
	case OnlySA:
		m := topo.NewConnMatrix(n, c)
		rng := s.rng(c, algo)
		m.Randomize(func() bool { return rng.Bool(0.5) })
		res := anneal.MinimizePareto(ctx, m, s.moveObjective(), anneal.ParetoOpts{}, s.Sched, rng)
		evals = res.Evals
		row = res.Entries[0].Row
	default:
		return RowSolution{}, fmt.Errorf("core: unknown algorithm %q", algo)
	}
	if ctx.Err() != nil {
		return RowSolution{}, fmt.Errorf("core: C=%d solve interrupted after %d evals: %w",
			c, evals, runctl.Cancelled(ctx))
	}

	row = row.Dedupe() // duplicate spans add ports, never shorten paths
	ev, err := s.Cfg.EvalRow(row, c)
	if err != nil {
		return RowSolution{}, fmt.Errorf("core: solution infeasible at C=%d: %w", c, err)
	}
	observeSolve("row", c, evals, time.Since(start))
	return RowSolution{Algo: algo, C: c, Row: row, Eval: ev, Evals: evals}, nil
}

// Optimize sweeps every feasible link limit, solves each, and returns the
// best solution along with all per-C solutions (the D&C_SA curve of Fig. 5).
// The per-C sub-problems are independent and run on a worker pool bounded by
// s.Workers; output is bit-identical to a sequential sweep. On failure all
// per-C errors are aggregated into the returned error; cancellation of ctx
// fails every unfinished sub-problem with runctl.ErrCancelled.
func (s *Solver) Optimize(ctx context.Context, algo Algorithm) (RowSolution, []RowSolution, error) {
	limits := s.Cfg.BW.FeasibleLimits(topo.LinkLimits(s.Cfg.N))
	if len(limits) == 0 {
		return RowSolution{}, nil, fmt.Errorf("core: no feasible link limits for n=%d", s.Cfg.N)
	}
	all := make([]RowSolution, len(limits))
	err := forEachIndex(ctx, len(limits), s.Workers, func(i int) error {
		sol, err := s.SolveRow(ctx, limits[i], algo)
		if err != nil {
			return fmt.Errorf("core: C=%d: %w", limits[i], err)
		}
		all[i] = sol
		return nil
	})
	if err != nil {
		return RowSolution{}, nil, err
	}
	best := all[0]
	for _, sol := range all[1:] {
		if sol.Eval.Total < best.Eval.Total {
			best = sol
		}
	}
	return best, all, nil
}

// Topology expands a row solution into the full network by the 2D->1D lemma.
func (s *Solver) Topology(sol RowSolution) topo.Topology {
	name := fmt.Sprintf("%s(C=%d)", sol.Algo, sol.C)
	return topo.Uniform(name, s.Cfg.N, sol.Row)
}
