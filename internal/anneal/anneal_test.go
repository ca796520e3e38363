package anneal

import (
	"context"
	"math"
	"testing"

	"explink/internal/bnb"
	"explink/internal/model"
	"explink/internal/obs"
	"explink/internal/stats"
	"explink/internal/topo"
)

var p = model.DefaultParams()

func rowObj(r topo.Row) float64 { return model.RowMean(r, p) }

// minimize runs the search on the row-mean objective and returns the k=1
// archive's single entry with the run's counters.
func minimize(t *testing.T, init *topo.ConnMatrix, sch Schedule, rng *stats.RNG) (ParetoEntry, ParetoResult) {
	t.Helper()
	res := MinimizePareto(context.Background(), init, model.NewIncObjective(p), ParetoOpts{}, sch, rng)
	if len(res.Entries) != 1 {
		t.Fatalf("k=1 archive holds %d entries, want 1", len(res.Entries))
	}
	return res.Entries[0], res
}

func TestDefaultScheduleMatchesTable1(t *testing.T) {
	s := DefaultSchedule()
	if s.T0 != 10 || s.Moves != 10000 || s.CoolEvery != 1000 || s.CoolDiv != 2 {
		t.Fatalf("schedule = %+v", s)
	}
}

func TestWithMoves(t *testing.T) {
	s := DefaultSchedule().WithMoves(1000)
	if s.Moves != 1000 || s.CoolEvery != 100 {
		t.Fatalf("scaled schedule = %+v", s)
	}
	tiny := DefaultSchedule().WithMoves(5)
	if tiny.CoolEvery < 1 {
		t.Fatalf("cool-every must stay positive: %+v", tiny)
	}
}

func TestWithMovesTinyBudgetRounding(t *testing.T) {
	// Regression: budgets far below the original CoolEvery round the scaled
	// cadence to zero, which the clamp must lift back to 1 so the schedule
	// still cools; the run must also remain well-defined end to end.
	for _, moves := range []int{1, 2, 3, 4} {
		s := DefaultSchedule().WithMoves(moves)
		if s.Moves != moves {
			t.Fatalf("WithMoves(%d) kept %d moves", moves, s.Moves)
		}
		if s.CoolEvery != 1 {
			t.Fatalf("WithMoves(%d) cadence = %d, want 1", moves, s.CoolEvery)
		}
		m := topo.NewConnMatrix(8, 4)
		_, res := minimize(t, m, s, stats.NewRNG(17))
		if res.Evals != int64(moves)+1 {
			t.Fatalf("WithMoves(%d) run made %d evals", moves, res.Evals)
		}
	}
	// A zero-move base schedule has no cadence to scale and must not divide
	// by zero.
	z := Schedule{T0: 1, Moves: 0, CoolEvery: 0, CoolDiv: 2}.WithMoves(10)
	if z.Moves != 10 || z.CoolEvery != 0 {
		t.Fatalf("zero-base schedule scaled to %+v", z)
	}
}

func TestMinimizeMemoCounters(t *testing.T) {
	m := topo.NewConnMatrix(8, 4)
	best, res := minimize(t, m, DefaultSchedule(), stats.NewRNG(23))
	if res.MemoHits+res.MemoMisses != res.Evals {
		t.Fatalf("hits %d + misses %d != evals %d", res.MemoHits, res.MemoMisses, res.Evals)
	}
	// Flip/revert churn guarantees revisits over a 10^4-move schedule on a
	// 18-bit space.
	if res.MemoHits == 0 {
		t.Fatal("memo never hit")
	}
	if res.MemoMisses == 0 {
		t.Fatal("memo never missed")
	}
	// The memo must not distort the reported optimum: the best row's true
	// objective equals the recorded one.
	if got := rowObj(best.Row); got != best.Objs[0] {
		t.Fatalf("memoized objective %v != recomputed %v", best.Objs[0], got)
	}
}

func TestMinimizeNoBits(t *testing.T) {
	// C=1 has an empty move space; the initial state must come back intact.
	m := topo.NewConnMatrix(8, 1)
	best, res := minimize(t, m, DefaultSchedule(), stats.NewRNG(1))
	if res.Evals != 1 {
		t.Fatalf("evals = %d", res.Evals)
	}
	if !best.Row.Equal(topo.MeshRow(8)) {
		t.Fatalf("row = %v", best.Row)
	}
}

func TestMinimizeImproves(t *testing.T) {
	m := topo.NewConnMatrix(8, 4) // start from mesh
	init := rowObj(m.Row())
	best, res := minimize(t, m, DefaultSchedule(), stats.NewRNG(7))
	if best.Objs[0] >= init {
		t.Fatalf("SA failed to improve: %g >= %g", best.Objs[0], init)
	}
	if err := best.Row.Validate(4); err != nil {
		t.Fatal(err)
	}
	if res.Evals != int64(DefaultSchedule().Moves)+1 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

func TestMinimizeDoesNotMutateInit(t *testing.T) {
	m := topo.NewConnMatrix(8, 4)
	snapshot := m.Clone()
	minimize(t, m, DefaultSchedule().WithMoves(500), stats.NewRNG(3))
	if !m.Equal(snapshot) {
		t.Fatal("initial matrix was mutated")
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	run := func() (ParetoEntry, ParetoResult) {
		return minimize(t, topo.NewConnMatrix(8, 4), DefaultSchedule(), stats.NewRNG(42))
	}
	a, ar := run()
	b, br := run()
	if a.Objs[0] != b.Objs[0] || !a.Row.Equal(b.Row) || ar.Accepted != br.Accepted {
		t.Fatal("SA is not deterministic for a fixed seed")
	}
}

func TestMinimizeFindsOptimumSmall(t *testing.T) {
	// P(8,2) has a 64-state matrix space; a full SA run must find the global
	// optimum.
	opt := bnb.ExhaustiveMatrix(8, 2, p)
	m := topo.NewConnMatrix(8, 2)
	best, _ := minimize(t, m, DefaultSchedule(), stats.NewRNG(5))
	if math.Abs(best.Objs[0]-opt.Mean) > 1e-9 {
		t.Fatalf("SA found %g, optimum is %g", best.Objs[0], opt.Mean)
	}
}

func TestMinimizeAcceptsUphillEarly(t *testing.T) {
	// With T0 = 10 the early phase must accept some uphill moves; a purely
	// greedy search would get stuck in the first local optimum.
	m := topo.NewConnMatrix(8, 4)
	_, res := minimize(t, m, DefaultSchedule(), stats.NewRNG(11))
	if res.Uphill == 0 {
		t.Fatal("no uphill moves accepted; annealing degenerated to greedy")
	}
}

func TestMinimizeZeroMoves(t *testing.T) {
	m := topo.NewConnMatrix(8, 4)
	best, res := minimize(t, m, Schedule{T0: 10, Moves: 0, CoolEvery: 1, CoolDiv: 2}, stats.NewRNG(1))
	if res.Evals != 1 || !best.Row.Equal(topo.MeshRow(8)) {
		t.Fatalf("zero-move run changed state: %v", best.Row)
	}
}

// TestMinimizeFromGoodInitNeverWorse pins the best-so-far invariant the
// core solvers rely on instead of re-checking their start state: the
// archive starts with the initial state, so the result is never worse than
// it under the objective being minimized. The cases are a strong seed under
// the uniform objective, the weighted objective on a skewed line from the
// uniform optimum (as a D&C start feeds a weighted line), and the weighted
// objective from a randomized start (the OnlySA ablation), each over several
// seeds and short schedules, where weak searches are likely.
func TestMinimizeFromGoodInitNeverWorse(t *testing.T) {
	const n = 8
	skewed := make([][]float64, n) // every router talks only to its mirror image
	for a := range skewed {
		skewed[a] = make([]float64, n)
		if b := n - 1 - a; b != a {
			skewed[a][b] = 1
		}
	}
	fromRow := func(row topo.Row, c int) func(*stats.RNG) *topo.ConnMatrix {
		return func(*stats.RNG) *topo.ConnMatrix {
			m, err := topo.MatrixFromRow(row, c)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	uniform := func() *model.IncObjective { return model.NewIncObjective(p) }
	weighted := func() *model.IncObjective { return model.NewIncObjective(p).WithWeights(skewed) }
	weightedObj := func(r topo.Row) float64 { return model.WeightedRowMean(r, p, skewed) }
	cases := []struct {
		name  string
		start func(*stats.RNG) *topo.ConnMatrix
		obj   func() *model.IncObjective
		score func(topo.Row) float64
	}{
		{"optimal seed", fromRow(bnb.OptimalRow(n, 3, p).Row, 3), uniform, rowObj},
		{"weighted skewed line", fromRow(bnb.OptimalRow(n, 4, p).Row, 4), weighted, weightedObj},
		{"weighted random start", func(rng *stats.RNG) *topo.ConnMatrix {
			m := topo.NewConnMatrix(n, 4)
			m.Randomize(func() bool { return rng.Bool(0.5) })
			return m
		}, weighted, weightedObj},
	}
	for _, tc := range cases {
		for _, moves := range []int{20, 400} {
			for seed := uint64(1); seed <= 6; seed++ {
				rng := stats.NewRNG(seed)
				m := tc.start(rng)
				start := tc.score(m.Row())
				res := MinimizePareto(context.Background(), m, tc.obj(), ParetoOpts{}, DefaultSchedule().WithMoves(moves), rng)
				if got := res.Entries[0].Objs[0]; got > start+1e-9 {
					t.Errorf("%s, %d moves, seed %d: SA returned %g, worse than its start %g", tc.name, moves, seed, got, start)
				}
			}
		}
	}
}

// TestMetricsMatchResult pins the batched metrics flush: after one search the
// exported counters equal the result's, and the best-objective gauge reports
// the archive's best.
func TestMetricsMatchResult(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	best, res := minimize(t, topo.NewConnMatrix(8, 4), DefaultSchedule().WithMoves(2500), stats.NewRNG(31))
	for name, want := range map[string]int64{
		"anneal_searches_total":    1,
		"anneal_moves_total":       2500,
		"anneal_evals_total":       res.Evals,
		"anneal_memo_hits_total":   res.MemoHits,
		"anneal_memo_misses_total": res.MemoMisses,
		"anneal_accepted_total":    res.Accepted,
		"anneal_uphill_total":      res.Uphill,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.FloatGauge("anneal_best_objective", "").Value(); got != best.Objs[0] {
		t.Errorf("anneal_best_objective = %v, want %v", got, best.Objs[0])
	}
}
