package exp

import (
	"context"
	"fmt"

	"explink/internal/anneal"
	"explink/internal/dnc"
	"explink/internal/model"
	"explink/internal/stats"
	"explink/internal/topo"
)

// Fig7Point is one x-position of the runtime-comparison curves: the best
// full-network latency each scheme reaches within an evaluation budget.
type Fig7Point struct {
	// Budget is the normalized runtime: total placement evaluations divided
	// by the cost of the initial-solution procedure I(n, C).
	Budget float64
	DCSA   float64
	OnlySA float64
}

// Fig7Curve is the comparison for one network size.
type Fig7Curve struct {
	N         int
	C         int
	InitEvals int64 // evaluations of I(n, C): the runtime unit
	Points    []Fig7Point
}

// Fig7Result reproduces Figure 7: placement quality as a function of allowed
// runtime for D&C_SA and OnlySA on 8x8 and 16x16 networks. Runtime is
// measured in placement evaluations (the dominant cost of both schemes) and
// normalized to the cost of I(n, 4), as in the paper.
type Fig7Result struct {
	Curves []Fig7Curve
}

// Fig7 runs both schemes at a ladder of budgets. Each scheme restarts
// annealing (fresh random stream, keeping the best placement seen) until its
// budget is exhausted, which is how "allowing more runtime" is realized.
func Fig7(o Options) (Fig7Result, error) {
	sizes := []int{8, 16}
	budgets := []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}
	if o.Quick {
		sizes = []int{8}
		budgets = []float64{1, 10, 100}
	}
	const c = 4 // the paper normalizes to I(8,4) and I(16,4)

	var out Fig7Result
	for _, n := range sizes {
		s := o.solverFor(n)
		init := dnc.Initial(n, c, s.Cfg.Params)
		curve := Fig7Curve{N: n, C: c, InitEvals: init.Evals}
		for _, budget := range budgets {
			evalBudget := int64(budget * float64(init.Evals))
			d, err := bestWithinBudget(o.ctx(), s.Cfg, c, init, evalBudget, o.Seed, true)
			if err != nil {
				return out, err
			}
			g, err := bestWithinBudget(o.ctx(), s.Cfg, c, init, evalBudget, o.Seed, false)
			if err != nil {
				return out, err
			}
			curve.Points = append(curve.Points, Fig7Point{Budget: budget, DCSA: d, OnlySA: g})
		}
		out.Curves = append(out.Curves, curve)
	}
	return out, nil
}

// bestWithinBudget runs one scheme under a total evaluation budget and
// returns the best full-network latency found. For D&C_SA the budget first
// pays for the initial solution; remaining evaluations fund annealing
// restarts. OnlySA spends everything on annealing from random states.
func bestWithinBudget(ctx context.Context, cfg model.Config, c int, init dnc.Result, budget int64, seed uint64, dcsa bool) (float64, error) {
	width, err := cfg.BW.Width(c)
	if err != nil {
		return 0, err
	}
	ser := model.Serialization(cfg.Mix, width)
	obj := model.NewIncObjective(cfg.Params)

	var spent int64
	best := 0.0
	haveBest := false
	consider := func(mean float64) {
		total := 2*mean + ser
		if !haveBest || total < best {
			best, haveBest = total, true
		}
	}

	var initMatrix *topo.ConnMatrix
	if dcsa {
		spent += init.Evals
		if spent > budget {
			// Not enough budget even for the initial procedure: the paper's
			// x-axis starts at 1 unit, exactly the cost of I(n, C).
			consider(init.Mean)
			return best, nil
		}
		consider(init.Mean)
		m, err := topo.MatrixFromRow(init.Row, c)
		if err != nil {
			return 0, err
		}
		initMatrix = m
	}

	sched := anneal.DefaultSchedule()
	restart := 0
	for spent < budget {
		remaining := budget - spent
		moves := sched.Moves
		if int64(moves) > remaining-1 {
			moves = int(remaining - 1)
		}
		if moves <= 0 {
			break
		}
		rng := stats.NewRNG(stats.MixSeed(seed, uint64(c), uint64(restart), boolToU64(dcsa)))
		var m *topo.ConnMatrix
		if dcsa {
			m = initMatrix.Clone()
		} else {
			m = topo.NewConnMatrix(cfg.N, c)
			m.Randomize(func() bool { return rng.Bool(0.5) })
		}
		res := anneal.MinimizePareto(ctx, m, obj, anneal.ParetoOpts{}, sched.WithMoves(moves), rng)
		spent += res.Evals
		consider(res.Entries[0].Objs[0])
		restart++
		if m.Bits() == 0 {
			break
		}
	}
	return best, nil
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Report formats one table per network size.
func (r Fig7Result) Report() *stats.Report {
	rep := stats.NewReport("fig7")
	for _, c := range r.Curves {
		t := rep.Add(stats.NewTable(
			fmt.Sprintf("Fig.7 (%dx%d): best latency vs normalized runtime [unit = I(%d,%d) = %d evals]",
				c.N, c.N, c.N, c.C, c.InitEvals),
			"runtime", "D&C_SA", "OnlySA"))
		for _, p := range c.Points {
			t.AddRowf(fmt.Sprintf("%.0f", p.Budget), p.DCSA, p.OnlySA)
		}
	}
	return rep
}
