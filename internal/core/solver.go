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
	"slices"
	"strconv"
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
	// Store, when non-nil, routes every row, weighted-line and frontier
	// solve through a shared content-addressed placement cache: a repeated
	// solve with the same canonical key (n, C, bandwidth, mix, params,
	// weights, algorithm, seed, schedule) returns the cached, bit-identical
	// solution instead of re-running SA. Workers is not part of the key —
	// output never depends on it.
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

// lineProblem is one instance of the one-dimensional problem P̃(n, C) on
// s.Cfg.N routers: what a store key names and what solve answers. The
// uniform row of SolveRow, one weighted line of SolveWeighted and one link
// limit's frontier of SolvePareto differ only in the objective the annealer
// minimizes, in the RNG salt and in how the archived rows are finished; a
// scalar problem is the k=1 case, whose archive holds one entry.
type lineProblem struct {
	kind string // "row", "line" or "pareto": the key's kind field and the core_solve label
	c    int
	algo Algorithm   // ParetoSA for a frontier
	w    [][]float64 // line: the traffic weights
	line int64       // line: the line's index, which salts its key and (plus one) its RNG
	spec *ParetoSpec // pareto: the resolved frontier spec
}

// rngFor derives a deterministic stream per (C, algorithm, salt) so solutions
// for different limits and lines are independent yet reproducible.
func (s *Solver) rngFor(c int, algo Algorithm, salt uint64) *stats.RNG {
	parts := []uint64{s.Seed, uint64(c), salt}
	for _, b := range []byte(algo) {
		parts = append(parts, uint64(b))
	}
	return stats.NewRNG(stats.MixSeed(parts...))
}

// SolveRow solves P̃(n, C) with the chosen algorithm and scores the resulting
// placement on the full network. Cancelling ctx cuts the annealing short and
// fails the solve with an error matching runctl.ErrCancelled — a truncated
// search result would silently misrank the link limits in Optimize. With a
// Store attached the solve is answered from the cache when possible; errors
// (including cancellation) are never cached.
func (s *Solver) SolveRow(ctx context.Context, c int, algo Algorithm) (RowSolution, error) {
	var one [1]FrontierEntry // a warm hit fills it in place
	entries, evals, err := s.solve(ctx, &lineProblem{kind: "row", c: c, algo: algo}, one[:0])
	if err != nil {
		return RowSolution{}, err
	}
	e := entries[0]
	return RowSolution{Algo: algo, C: c, Row: e.Row, Eval: e.Eval, Evals: evals}, nil
}

// solve answers one line problem, appending its entries to dst, through the
// placement store when one is attached. A scalar problem is one stored entry
// under its key. A frontier is a meta entry (archive size and evals) plus one
// entry per archived placement, under the key with a "frontier=meta" or
// "frontier=entry:i" suffix; the real anneal runs at most once per call even
// when several of those pieces are missing or corrupt (GetOrCompute runs
// compute on the calling goroutine, so a flag suffices). The preimage is
// built on the stack, so a warm hit allocates no key.
func (s *Solver) solve(ctx context.Context, lp *lineProblem, dst []FrontierEntry) ([]FrontierEntry, int64, error) {
	if s.Store == nil {
		entries, evals, err := s.solveUncached(ctx, lp)
		return append(dst, entries...), evals, err
	}
	var (
		buf      [keyBufSize]byte
		ran      bool
		computed []FrontierEntry
		cevals   int64
		cerr     error
	)
	key := s.appendKey(buf[:0], lp)
	base := len(key)
	run := func() error {
		if !ran {
			computed, cevals, cerr = s.solveUncached(ctx, lp)
			ran = true
		}
		return cerr
	}
	count, evals := 1, int64(0)
	if lp.spec != nil {
		meta, _, err := s.Store.GetOrCompute(append(key, "frontier=meta\n"...), func() (StoredPlacement, error) {
			if err := run(); err != nil {
				return StoredPlacement{}, err
			}
			return StoredPlacement{Algo: lp.algo, C: lp.c, N: s.Cfg.N, Evals: cevals, Count: len(computed)}, nil
		})
		if err != nil {
			return nil, 0, err
		}
		count, evals = meta.Count, meta.Evals
	}
	for i := 0; i < count; i++ {
		key = key[:base]
		if lp.spec != nil {
			key = append(key, "frontier=entry:"...)
			key = append(strconv.AppendInt(key, int64(i), 10), '\n')
		}
		sp, _, err := s.Store.GetOrCompute(key, func() (StoredPlacement, error) {
			if err := run(); err != nil {
				return StoredPlacement{}, err
			}
			if i >= len(computed) {
				return StoredPlacement{}, fmt.Errorf("core: frontier entry %d beyond recomputed archive of %d (stale meta)", i, len(computed))
			}
			e := computed[i]
			sp := StoredPlacement{Algo: lp.algo, C: lp.c, N: s.Cfg.N, Eval: e.Eval, Evals: cevals, Objs: e.Objs}
			if len(e.Row.Express) > 0 {
				sp.Express = e.Row.Express
			}
			return sp, nil
		})
		if err != nil {
			return nil, 0, err
		}
		e := FrontierEntry{C: sp.C, Row: sp.Row(), Eval: sp.Eval, Objs: sp.Objs}
		if lp.spec != nil {
			// The placement cost is cheap and derived, so it is recomputed
			// rather than persisted.
			e.Cost = lp.spec.Power.PlacementCost(e.Row, sp.Eval.Width)
		} else {
			evals = sp.Evals
		}
		dst = append(dst, e)
	}
	return dst, evals, nil
}

// solveUncached runs one line problem: the divide-and-conquer initial
// solution I(n, C) (D&C_SA, InitOnly and frontiers) or a random state
// (OnlySA), annealed unless InitOnly, then each archived row finished. The
// D&C start stays unweighted for a weighted line — it is a structural
// heuristic, and Section 5.6.4 notes that "the proposed divide-and-conquer
// method ... and the cleverly-designed connection matrix ... are still
// applicable". Row and frontier rows are deduped (duplicate spans add ports,
// never shorten paths) and scored on the full network; a weighted line keeps
// its canonical row unscored, since SolveWeighted scores the whole design.
// The annealer tracks its best state from the start state on, so the result
// is never worse than that start under the objective. Entries return sorted
// by objective vector.
func (s *Solver) solveUncached(ctx context.Context, lp *lineProblem) ([]FrontierEntry, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := s.Cfg.Validate(); err != nil {
		return nil, 0, err
	}
	width, err := s.Cfg.BW.Width(lp.c)
	if err != nil {
		return nil, 0, err
	}
	n, c := s.Cfg.N, lp.c
	var salt uint64
	if lp.kind == "line" {
		salt = uint64(lp.line) + 1
	}
	rng := s.rngFor(c, lp.algo, salt)

	var m *topo.ConnMatrix // the annealer's start; nil for InitOnly
	var archive []anneal.ParetoEntry
	var evals int64
	switch {
	case lp.algo == OnlySA:
		m = topo.NewConnMatrix(n, c)
		m.Randomize(func() bool { return rng.Bool(0.5) })
	case lp.algo == DCSA || lp.algo == InitOnly || lp.spec != nil:
		init := dnc.Initial(n, c, s.Cfg.Params)
		evals = init.Evals
		archive = []anneal.ParetoEntry{{Row: init.Row}}
		if lp.algo != InitOnly {
			if m, err = topo.MatrixFromRow(init.Row, c); err != nil {
				return nil, 0, fmt.Errorf("core: encoding initial solution: %w", err)
			}
		}
	default:
		return nil, 0, fmt.Errorf("core: unknown algorithm %q", lp.algo)
	}
	if m != nil {
		var vo anneal.VectorMoveObjective
		var opts anneal.ParetoOpts
		if lp.spec != nil {
			vo, opts = lp.spec.search(s.Cfg, m, width)
		} else {
			// Weights, when set, take precedence over the worst-case blend.
			vo = model.NewIncObjective(s.Cfg.Params).WithWeights(lp.w).WithWorstBlend(s.WorstWeight)
		}
		if lp.kind == "line" {
			// A weighted line counts its start state once more than the
			// annealer does; appspec's pinned evals column includes it.
			evals++
		}
		res := anneal.MinimizePareto(ctx, m, vo, opts, s.Sched, rng)
		evals += res.Evals
		archive = res.Entries
	}
	if ctx.Err() != nil {
		return nil, 0, fmt.Errorf("core: C=%d %s solve interrupted after %d evals: %w",
			c, lp.kind, evals, runctl.Cancelled(ctx))
	}

	entries := make([]FrontierEntry, 0, len(archive))
	for _, a := range archive {
		e := FrontierEntry{C: c, Row: a.Row.Canonical()}
		if lp.kind != "line" {
			e.Row = e.Row.Dedupe()
			if slices.ContainsFunc(entries, func(p FrontierEntry) bool { return p.Row.Equal(e.Row) }) {
				continue
			}
			if e.Eval, err = s.Cfg.EvalRow(e.Row, c); err != nil {
				return nil, 0, fmt.Errorf("core: placement infeasible at C=%d: %w", c, err)
			}
		}
		if lp.spec != nil {
			e.Cost = lp.spec.Power.PlacementCost(e.Row, width)
			e.Objs = objsFor(lp.spec.Objectives, e.Eval, e.Cost)
		}
		entries = append(entries, e)
	}
	slices.SortFunc(entries, compareEntries)
	if lp.spec == nil { // core_solve times the scalar kinds, row and line
		observeSolve(lp.kind, c, evals, time.Since(start))
	}
	return entries, evals, nil
}

// Optimize sweeps every feasible link limit, solves each, and returns the
// best solution along with all per-C solutions (the D&C_SA curve of Fig. 5).
// The per-C sub-problems are independent and run on a worker pool bounded by
// s.Workers; output is bit-identical to a sequential sweep. On failure all
// per-C errors are aggregated into the returned error; cancellation of ctx
// fails every unfinished sub-problem with runctl.ErrCancelled.
func (s *Solver) Optimize(ctx context.Context, algo Algorithm) (RowSolution, []RowSolution, error) {
	limits, err := s.limits()
	if err != nil {
		return RowSolution{}, nil, err
	}
	all := make([]RowSolution, len(limits))
	err = forEachIndex(ctx, len(limits), s.Workers, func(i int) error {
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

// limits returns the feasible link limits of the solver's network.
func (s *Solver) limits() ([]int, error) {
	limits := s.Cfg.BW.FeasibleLimits(topo.LinkLimits(s.Cfg.N))
	if len(limits) == 0 {
		return nil, fmt.Errorf("core: no feasible link limits for n=%d", s.Cfg.N)
	}
	return limits, nil
}

// Topology expands a row solution into the full network by the 2D->1D lemma.
func (s *Solver) Topology(sol RowSolution) topo.Topology {
	name := fmt.Sprintf("%s(C=%d)", sol.Algo, sol.C)
	return topo.Uniform(name, s.Cfg.N, sol.Row)
}
