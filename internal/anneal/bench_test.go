package anneal

import (
	"context"
	"fmt"
	"testing"

	"explink/internal/model"
	"explink/internal/stats"
	"explink/internal/topo"
)

// BenchmarkMinimize times a full default SA schedule (10^4 moves) on the
// connection-matrix search space, the per-line unit of work behind
// core.SolveRow and core.SolveWeighted. The "full" variant re-routes every
// memo miss from scratch (the oracle.Scratch reference objective) and
// compares it against the incremental path at the same problem sizes;
// perfbench's anneal.ns_per_miss measures the incremental path end to end.
func BenchmarkMinimize(b *testing.B) {
	for _, size := range []struct{ n, c int }{{8, 3}, {16, 4}, {32, 4}} {
		p := model.DefaultParams()
		b.Run(fmt.Sprintf("full/n%d_C%d", size.n, size.c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := topo.NewConnMatrix(size.n, size.c)
				rng := stats.NewRNG(1)
				m.Randomize(func() bool { return rng.Bool(0.5) })
				MinimizePareto(context.Background(), m, newScratchObjective(p), ParetoOpts{}, DefaultSchedule(), rng)
			}
		})
		b.Run(fmt.Sprintf("inc/n%d_C%d", size.n, size.c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := topo.NewConnMatrix(size.n, size.c)
				rng := stats.NewRNG(1)
				m.Randomize(func() bool { return rng.Bool(0.5) })
				MinimizePareto(context.Background(), m, model.NewIncObjective(p), ParetoOpts{}, DefaultSchedule(), rng)
			}
		})
	}
}
