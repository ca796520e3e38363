package api

import (
	"context"
	"fmt"
	"strings"

	"explink/internal/core"
	"explink/internal/model"
	"explink/internal/sim"
	"explink/internal/topo"
	"explink/internal/traffic"
)

// Solver builds the placement solver described by a (normalized, validated)
// SolveRequest; store, when non-nil, routes every solve through the shared
// placement cache.
func (r *SolveRequest) Solver(store *core.PlacementStore) (*core.Solver, error) {
	cfg := model.DefaultConfig(r.N)
	cfg.BW.BaseWidth = r.BaseWidth
	if err := cfg.Validate(); err != nil {
		return nil, configErr("%v", err)
	}
	s := core.NewSolver(cfg)
	s.Seed = r.Seed
	s.WorstWeight = r.WorstWeight
	if r.Moves > 0 {
		s.Sched = s.Sched.WithMoves(r.Moves)
	}
	s.Store = store
	return s, nil
}

// Solve runs the solve described by the request: one link limit when C > 0,
// otherwise the full feasible-C sweep. It is the single solve path shared by
// cmd/explink and the daemon, which is what makes their outputs comparable
// byte for byte.
func (r *SolveRequest) Solve(ctx context.Context, store *core.PlacementStore) (core.RowSolution, []core.RowSolution, error) {
	s, err := r.Solver(store)
	if err != nil {
		return core.RowSolution{}, nil, err
	}
	if r.C > 0 {
		best, err := s.SolveRow(ctx, r.C, core.Algorithm(r.Algo))
		if err != nil {
			return core.RowSolution{}, nil, err
		}
		return best, []core.RowSolution{best}, nil
	}
	return s.Optimize(ctx, core.Algorithm(r.Algo))
}

// BuildTopology resolves a topology family name to a concrete topology and
// its link limit. "dcsa" solves an optimized placement first (with the
// paper's default solver configuration at the given seed), routed through
// store when one is attached so repeated requests re-solve nothing.
func BuildTopology(ctx context.Context, name string, n int, seed uint64, store *core.PlacementStore) (topo.Topology, int, error) {
	switch strings.ToLower(name) {
	case "mesh":
		return topo.Mesh(n), 1, nil
	case "fb":
		t := topo.FlattenedButterfly(n)
		return t, t.MaxCrossSection(), nil
	case "hfb":
		t := topo.HFB(n)
		return t, t.MaxCrossSection(), nil
	case "dcsa":
		s := core.NewSolver(model.DefaultConfig(n))
		s.Seed = seed
		s.Store = store
		best, _, err := s.Optimize(ctx, core.DCSA)
		if err != nil {
			return topo.Topology{}, 0, err
		}
		return s.Topology(best), best.C, nil
	default:
		return topo.Topology{}, 0, configErr("unknown topology %q", name)
	}
}

// synthetic maps the synthetic pattern names, upper-cased, to their
// constructors.
var synthetic = map[string]func(n int) traffic.Pattern{
	"UR": traffic.UniformRandom, "TP": traffic.Transpose, "BR": traffic.BitReverse,
	"BC": traffic.BitComplement, "SH": traffic.Shuffle, "TOR": traffic.Tornado, "NBR": traffic.Neighbor,
	"HOTSPOT": func(n int) traffic.Pattern {
		hot := []int{0, n - 1, n * (n - 1), n*n - 1}
		return traffic.Hotspot(n, hot, 0.3, traffic.UniformRandom(n))
	},
}

// BuildPattern resolves a traffic-pattern name: a synthetic pattern (rate
// passes through) or a PARSEC benchmark (which carries its own injection
// rate).
func BuildPattern(name string, n int, rate float64) (traffic.Pattern, float64, error) {
	if pattern, ok := synthetic[strings.ToUpper(name)]; ok {
		return pattern(n), rate, nil
	}
	b, err := traffic.BenchmarkByName(strings.ToLower(name))
	if err != nil {
		return nil, 0, configErr("unknown pattern %q (synthetic or PARSEC name)", name)
	}
	return b.Pattern(n), b.InjRate, nil
}

// Config builds the simulator configuration described by a (normalized,
// validated) SimRequest, solving the topology first when the family demands
// it. The pattern may override the requested rate (PARSEC benchmarks carry
// their own).
func (r *SimRequest) Config(ctx context.Context, store *core.PlacementStore) (sim.Config, error) {
	tp, c, err := BuildTopology(ctx, r.Topo, r.N, r.Seed, store)
	if err != nil {
		return sim.Config{}, fmt.Errorf("api: topology: %w", err)
	}
	pat, rate, err := BuildPattern(r.Pattern, r.N, r.Rate)
	if err != nil {
		return sim.Config{}, fmt.Errorf("api: pattern: %w", err)
	}
	cfg := sim.NewConfig(tp, c, pat, rate)
	cfg.Seed = r.Seed
	cfg.Warmup, cfg.Measure, cfg.Drain = r.Warmup, r.Measure, r.Drain
	cfg.Audit = r.Audit
	return cfg, nil
}

// Run executes the (normalized, validated) request: one operating point, a
// replica group, or a saturation sweep. A run cut short returns what it
// measured alongside its error (see SimResponse.Partial).
func (r *SimRequest) Run(ctx context.Context, store *core.PlacementStore) (SimResponse, error) {
	var resp SimResponse
	cfg, err := r.Config(ctx, store)
	if err != nil {
		return resp, err
	}
	switch {
	case r.Saturate:
		opts := sim.DefaultSaturationOpts()
		if r.Replicas > 1 {
			opts.Replicas = r.Replicas
		}
		sr, err := sim.FindSaturation(ctx, cfg, opts)
		if len(sr.Points) > 0 || err == nil {
			resp.Sweep = &sr
		}
		return resp, err
	case r.Replicas > 1:
		b, err := sim.NewBatch(cfg, sim.ReplicaSeeds(cfg.Seed, r.Replicas))
		if err != nil {
			return resp, err
		}
		results, _, err := b.Run(ctx, 0)
		if len(results) > 0 {
			agg := sim.AggregateReplicas(results)
			resp.Replicas, resp.Aggregate = results, &agg
		}
		return resp, err
	default:
		sm, err := sim.New(cfg)
		if err != nil {
			return resp, err
		}
		res, err := sm.Run(ctx)
		resp.Result = &res
		return resp, err
	}
}
