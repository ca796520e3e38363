package exp

import (
	"fmt"

	"explink/internal/anneal"
	"explink/internal/model"
	"explink/internal/stats"
	"explink/internal/topo"
)

// This file holds ablation studies for the design choices the paper argues
// for in prose but does not plot:
//
//   - AblationGenerator: the connection-matrix candidate generator vs the
//     naive raw-space generator (Section 4.4.2's motivation);
//   - AblationRouting / AblationBypass live in ablation_sim.go and exercise
//     the Section 4.2 routing justification and the Section 2.1 virtual
//     express channel comparison inside the simulator.

// GeneratorPoint compares the two candidate generators at one move budget.
type GeneratorPoint struct {
	Moves        int
	MatrixObj    float64 // best row-mean latency via connection-matrix SA
	NaiveObj     float64 // best via naive raw-space SA
	NaiveInvalid float64 // fraction of naive moves that were infeasible
	MatrixEvals  int64
	NaiveEvals   int64
}

// GeneratorResult is the full ablation for one P̃(n, C).
type GeneratorResult struct {
	N, C   int
	Points []GeneratorPoint
}

// AblationGenerator anneals P̃(n, C) with both candidate generators from the
// same mesh start across a ladder of move budgets, reporting quality and the
// naive generator's infeasible-move rate.
func AblationGenerator(o Options) (GeneratorResult, error) {
	n, c := 16, 8
	budgets := []int{100, 1000, 10000}
	if o.Quick {
		budgets = []int{100, 1000}
	}
	p := model.DefaultParams()
	obj := func(r topo.Row) float64 { return model.RowMean(r, p) }
	out := GeneratorResult{N: n, C: c}
	for _, moves := range budgets {
		sch := anneal.DefaultSchedule().WithMoves(moves)

		m := topo.NewConnMatrix(n, c)
		mres := anneal.MinimizePareto(o.ctx(), m, model.NewIncObjective(p), anneal.ParetoOpts{}, sch,
			stats.NewRNG(stats.MixSeed(o.Seed, 1, uint64(moves))))

		nres := anneal.MinimizeNaive(topo.MeshRow(n), c, obj, sch,
			stats.NewRNG(stats.MixSeed(o.Seed, 2, uint64(moves))))

		out.Points = append(out.Points, GeneratorPoint{
			Moves:        moves,
			MatrixObj:    mres.Entries[0].Objs[0],
			NaiveObj:     nres.Obj,
			NaiveInvalid: float64(nres.Invalid) / float64(nres.Moves),
			MatrixEvals:  mres.Evals,
			NaiveEvals:   nres.Evals,
		})
	}
	return out, nil
}

// Report formats the generator ablation.
func (r GeneratorResult) Report() *stats.Report {
	rep := stats.NewReport("abgen")
	t := rep.Add(stats.NewTable(
		fmt.Sprintf("Ablation (Section 4.4.2): candidate generators on P(%d,%d), row-mean head latency", r.N, r.C),
		"moves", "matrix SA", "naive SA", "naive invalid %", "matrix evals", "naive evals"))
	for _, p := range r.Points {
		t.AddRowf(p.Moves, p.MatrixObj, p.NaiveObj,
			fmt.Sprintf("%.1f", 100*p.NaiveInvalid), p.MatrixEvals, p.NaiveEvals)
	}
	t.AddNote("every connection-matrix move is feasible by construction; the naive raw-space\n" +
		"generator wastes the printed fraction of its budget on infeasible candidates.")
	return rep
}
