package anneal

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"explink/internal/model"
	"explink/internal/stats"
	"explink/internal/topo"
)

// referenceScalarSA is the paper's scalar search (§4.4) written out plainly:
// one random bit flip per move, accept iff ΔL ≤ 0 or with probability
// e^{-ΔL/T}, best state tracked on strict improvement, every candidate scored
// by a full row evaluation. A visited set reproduces the memo accounting.
func referenceScalarSA(init *topo.ConnMatrix, sch Schedule, rng *stats.RNG) (*topo.ConnMatrix, float64, ParetoResult) {
	cur := init.Clone()
	curObj := rowObj(cur.Row())
	best, bestObj := cur.Clone(), curObj
	res := ParetoResult{Evals: 1, MemoMisses: 1}
	seen := map[string]bool{string(cur.AppendKey(nil)): true}
	temp := sch.T0
	for move := 1; move <= sch.Moves && cur.Bits() > 0; move++ {
		i := rng.Intn(cur.Bits())
		cur.FlipAt(i)
		if key := string(cur.AppendKey(nil)); seen[key] {
			res.MemoHits++
		} else {
			seen[key] = true
			res.MemoMisses++
		}
		res.Evals++
		candObj := rowObj(cur.Row())
		delta := candObj - curObj
		accept := delta <= 0
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			res.Accepted++
			if delta > 0 {
				res.Uphill++
			}
			curObj = candObj
			if candObj < bestObj {
				bestObj = candObj
				best.Copy(cur)
			}
		} else {
			cur.FlipAt(i)
		}
		if sch.CoolEvery > 0 && move%sch.CoolEvery == 0 && sch.CoolDiv > 0 {
			temp /= sch.CoolDiv
		}
	}
	return best, bestObj, res
}

// TestMinimizeParetoScalarEquivalence pins the one-loop contract: the scalar
// search is the k=1 special case of the vector search, not a sibling
// algorithm. MinimizePareto over a one-dimensional objective must consume
// the RNG stream identically to the plain scalar search and land on the same
// best state with bit-identical objective and counters.
func TestMinimizeParetoScalarEquivalence(t *testing.T) {
	cases := []struct {
		n, c  int
		seed  uint64
		moves int
	}{
		{8, 3, 1, 2000},
		{8, 3, 7, 2000},
		{12, 4, 42, 3000},
		{16, 2, 9, 1500},
		{6, 6, 5, 1000},
	}
	for _, tc := range cases {
		init := topo.NewConnMatrix(tc.n, tc.c)
		seedRNG := stats.NewRNG(tc.seed)
		init.Randomize(func() bool { return seedRNG.Bool(0.5) })
		sch := DefaultSchedule().WithMoves(tc.moves)

		refM, refObj, ref := referenceScalarSA(init, sch, stats.NewRNG(tc.seed))
		e, vec := minimize(t, init, sch, stats.NewRNG(tc.seed))

		if e.Objs[0] != refObj {
			t.Errorf("n=%d c=%d: pareto best %v != scalar best %v", tc.n, tc.c, e.Objs[0], refObj)
		}
		if !e.Matrix.Equal(refM) {
			t.Errorf("n=%d c=%d: pareto matrix %v != scalar matrix %v", tc.n, tc.c, e.Matrix, refM)
		}
		if vec.Evals != ref.Evals || vec.Accepted != ref.Accepted ||
			vec.Uphill != ref.Uphill || vec.MemoHits != ref.MemoHits ||
			vec.MemoMisses != ref.MemoMisses {
			t.Errorf("n=%d c=%d: counters diverge: pareto {E%d A%d U%d H%d M%d} scalar {E%d A%d U%d H%d M%d}",
				tc.n, tc.c,
				vec.Evals, vec.Accepted, vec.Uphill, vec.MemoHits, vec.MemoMisses,
				ref.Evals, ref.Accepted, ref.Uphill, ref.MemoHits, ref.MemoMisses)
		}
	}
}

// testVector is a deterministic synthetic 2-D objective over the matrix bit
// pattern: dimension 0 rewards fewer set bits, dimension 1 rewards more — a
// pure trade-off, so the non-dominated set is large and exercises the
// archive.
type testVector struct {
	m       *topo.ConnMatrix
	pending int
}

func (o *testVector) K() int { return 2 }
func (o *testVector) Init(m *topo.ConnMatrix, dst []float64) {
	o.m = m
	o.eval(dst)
}
func (o *testVector) Flip(bit int)       { o.pending = bit }
func (o *testVector) Eval(dst []float64) { o.eval(dst) }
func (o *testVector) Commit()            {}
func (o *testVector) Revert()            {}
func (o *testVector) eval(dst []float64) {
	ones := 0
	key := o.m.AppendKey(nil)
	for _, b := range key {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	dst[0] = float64(ones)
	dst[1] = float64(o.m.Bits() - ones)
}

// TestMinimizeParetoArchiveInvariants checks the archive contract on a
// genuinely multi-objective search: entries mutually non-dominated, distinct
// objective vectors, lexicographically sorted, size within the cap, and rows
// decoding their matrices.
func TestMinimizeParetoArchiveInvariants(t *testing.T) {
	init := topo.NewConnMatrix(10, 4)
	rng := stats.NewRNG(11)
	init.Randomize(func() bool { return rng.Bool(0.5) })
	res := MinimizePareto(context.Background(), init, &testVector{},
		ParetoOpts{ArchiveCap: 8}, DefaultSchedule().WithMoves(2000), stats.NewRNG(11))

	if len(res.Entries) == 0 || len(res.Entries) > 8 {
		t.Fatalf("archive size %d outside (0, 8]", len(res.Entries))
	}
	for i, a := range res.Entries {
		if !a.Row.Equal(a.Matrix.Row()) {
			t.Errorf("entry %d: row does not decode matrix", i)
		}
		for j, b := range res.Entries {
			if i != j && stats.WeaklyDominates(a.Objs, b.Objs) {
				t.Errorf("entry %d weakly dominates entry %d: %v vs %v", i, j, a.Objs, b.Objs)
			}
		}
		if i > 0 && stats.CompareLex(res.Entries[i-1].Objs, a.Objs) >= 0 {
			t.Errorf("entries not lex-sorted at %d: %v !< %v", i, res.Entries[i-1].Objs, a.Objs)
		}
	}
	// The pure trade-off objective forces more than 8 non-dominated states
	// through a 2000-move walk, so the pruner must have fired.
	if res.ArchivePruned == 0 {
		t.Error("expected the crowding pruner to fire on a capped archive")
	}
	// Crowding keeps the frontier's endpoints: the best-seen value in each
	// dimension must still be present.
	for d := 0; d < 2; d++ {
		best := math.Inf(1)
		for _, e := range res.Entries {
			if e.Objs[d] < best {
				best = e.Objs[d]
			}
		}
		if math.IsInf(best, 1) {
			t.Fatalf("no finite values in dim %d", d)
		}
	}
}

// TestMinimizeParetoDeterminism: same inputs + same seed → deep-equal
// archives, including entry order.
func TestMinimizeParetoDeterminism(t *testing.T) {
	run := func() ParetoResult {
		init := topo.NewConnMatrix(10, 4)
		rng := stats.NewRNG(3)
		init.Randomize(func() bool { return rng.Bool(0.5) })
		return MinimizePareto(context.Background(), init, &testVector{},
			ParetoOpts{ArchiveCap: 6}, DefaultSchedule().WithMoves(1500), stats.NewRNG(3))
	}
	a, b := run(), run()
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if !reflect.DeepEqual(a.Entries[i].Objs, b.Entries[i].Objs) {
			t.Errorf("entry %d objs differ: %v vs %v", i, a.Entries[i].Objs, b.Entries[i].Objs)
		}
		if !a.Entries[i].Row.Equal(b.Entries[i].Row) {
			t.Errorf("entry %d rows differ", i)
		}
	}
	if a.Evals != b.Evals || a.Accepted != b.Accepted || a.ArchivePruned != b.ArchivePruned {
		t.Errorf("counters differ: %+v vs %+v", a, b)
	}
}

// TestMinimizeParetoNoMoves pins the degenerate cases: an empty move budget
// or a zero-bit matrix returns an archive holding exactly the initial state.
func TestMinimizeParetoNoMoves(t *testing.T) {
	init := topo.NewConnMatrix(8, 3)
	rng := stats.NewRNG(2)
	init.Randomize(func() bool { return rng.Bool(0.5) })
	res := MinimizePareto(context.Background(), init, &testVector{},
		ParetoOpts{}, Schedule{T0: 10, Moves: 0}, stats.NewRNG(2))
	if len(res.Entries) != 1 || res.Evals != 1 {
		t.Fatalf("zero-move search: %d entries, %d evals", len(res.Entries), res.Evals)
	}
	if !res.Entries[0].Row.Equal(init.Row()) {
		t.Fatal("zero-move search did not return the initial state")
	}

	c1 := topo.NewConnMatrix(8, 1) // no connection points
	res = MinimizePareto(context.Background(), c1, &testVector{},
		ParetoOpts{}, DefaultSchedule(), stats.NewRNG(2))
	if len(res.Entries) != 1 {
		t.Fatalf("bitless search returned %d entries", len(res.Entries))
	}
}

// TestMinimizeParetoCancel: a pre-cancelled context returns immediately with
// the initial archive (anytime semantics, like the scalar loop).
func TestMinimizeParetoCancel(t *testing.T) {
	init := topo.NewConnMatrix(8, 3)
	rng := stats.NewRNG(4)
	init.Randomize(func() bool { return rng.Bool(0.5) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := MinimizePareto(ctx, init, &testVector{}, ParetoOpts{}, DefaultSchedule(), stats.NewRNG(4))
	if res.Evals != 1 || len(res.Entries) != 1 {
		t.Fatalf("cancelled search did work: %d evals, %d entries", res.Evals, len(res.Entries))
	}
}

// cancellingVector is a testVector that cancels the search's context during
// its at-th move.
type cancellingVector struct {
	testVector
	cancel      context.CancelFunc
	at, flipped int
}

func (o *cancellingVector) Flip(bit int) {
	o.flipped++
	if o.flipped == o.at {
		o.cancel()
	}
	o.testVector.Flip(bit)
}

// TestMinimizeParetoCancelMidSearch: the context is polled every 64 moves, so
// a cancel during a search ends it within 64 further moves, at the next poll,
// and the archive found so far is still returned.
func TestMinimizeParetoCancelMidSearch(t *testing.T) {
	init := topo.NewConnMatrix(8, 3)
	for _, at := range []int{1, 63, 64, 65, 100} {
		ctx, cancel := context.WithCancel(context.Background())
		obj := &cancellingVector{cancel: cancel, at: at}
		res := MinimizePareto(ctx, init, obj, ParetoOpts{}, DefaultSchedule(), stats.NewRNG(4))
		cancel()
		if obj.flipped < at || obj.flipped >= at+64 {
			t.Fatalf("cancelled at move %d: search ran %d moves, want fewer than %d", at, obj.flipped, at+64)
		}
		if res.Evals != int64(obj.flipped)+1 || len(res.Entries) == 0 {
			t.Fatalf("cancelled at move %d: %d evals for %d moves, %d entries", at, res.Evals, obj.flipped, len(res.Entries))
		}
	}
}

// TestMinimizeParetoHugeArchiveCap is the regression test for caps and move
// budgets far beyond what the search can fill: a 2^40 archive cap must not
// try to allocate 2^40 slots, and a math.MaxInt move budget must not
// overflow the presizing (a cancelled context ends that search at once).
func TestMinimizeParetoHugeArchiveCap(t *testing.T) {
	init := topo.NewConnMatrix(8, 4)
	res := MinimizePareto(context.Background(), init, &testVector{},
		ParetoOpts{ArchiveCap: 1 << 40}, DefaultSchedule().WithMoves(200), stats.NewRNG(1))
	if len(res.Entries) == 0 || res.ArchivePruned != 0 {
		t.Fatalf("huge-cap search: %d entries, %d pruned", len(res.Entries), res.ArchivePruned)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, archCap := range []int{0, 1 << 40, math.MaxInt} {
		res = MinimizePareto(ctx, init, &testVector{},
			ParetoOpts{ArchiveCap: archCap}, Schedule{T0: 10, Moves: math.MaxInt, CoolEvery: 1000, CoolDiv: 2}, stats.NewRNG(1))
		if len(res.Entries) != 1 || res.Evals != 1 {
			t.Fatalf("cap %d, MaxInt moves, cancelled: %d entries, %d evals", archCap, len(res.Entries), res.Evals)
		}
	}
}

// TestMinimizeParetoWideMatrixPresize bounds what a search allocates before
// its first move: a 1024x64 matrix packs into a 1007-word key, and presizing
// the memo for every state a huge move budget could store would ask for
// gigabytes. The cancelled context ends each search at once, so the bytes
// counted are the setup alone. The 2^14 budget runs first so an unbounded
// presize fails here at ~130 MB instead of attempting the MaxInt one.
func TestMinimizeParetoWideMatrixPresize(t *testing.T) {
	const limit = 4 << 20
	init := topo.NewConnMatrix(1024, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, moves := range []int{1 << 14, math.MaxInt} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := MinimizePareto(ctx, init, &testVector{}, ParetoOpts{},
			Schedule{T0: 10, Moves: moves, CoolEvery: 1000, CoolDiv: 2}, stats.NewRNG(1))
		runtime.ReadMemStats(&after)
		if len(res.Entries) != 1 || res.Evals != 1 {
			t.Fatalf("moves %d, cancelled: %d entries, %d evals", moves, len(res.Entries), res.Evals)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("moves %d: %d bytes", moves, got)
		if got > limit {
			t.Fatalf("moves %d: search allocated %d bytes before its first move, want <= %d", moves, got, limit)
		}
	}
}

// tradeoffVector is a 3-D objective that allocates nothing per move: the
// row-mean latency plus the set-bit count and its complement, a pure
// trade-off that keeps the archive full and the crowding pruner busy.
type tradeoffVector struct {
	lat     *model.IncObjective
	set     []bool
	ones    int
	pending int
	buf     [1]float64
}

func (o *tradeoffVector) K() int { return 3 }
func (o *tradeoffVector) Init(m *topo.ConnMatrix, dst []float64) {
	o.lat.Init(m, o.buf[:])
	o.set = make([]bool, m.Bits())
	o.ones = 0
	for i, b := range m.AppendKey(nil) {
		for j := 0; j < 8 && 8*i+j < len(o.set); j++ {
			if b&(1<<j) != 0 {
				o.set[8*i+j] = true
				o.ones++
			}
		}
	}
	o.fill(dst)
}
func (o *tradeoffVector) Flip(bit int) {
	o.lat.Flip(bit)
	o.toggle(bit)
	o.pending = bit
}
func (o *tradeoffVector) Eval(dst []float64) {
	o.lat.Eval(o.buf[:])
	o.fill(dst)
}
func (o *tradeoffVector) Commit() { o.lat.Commit() }
func (o *tradeoffVector) Revert() {
	o.lat.Revert()
	o.toggle(o.pending)
}
func (o *tradeoffVector) toggle(bit int) {
	o.set[bit] = !o.set[bit]
	if o.set[bit] {
		o.ones++
	} else {
		o.ones--
	}
}
func (o *tradeoffVector) fill(dst []float64) {
	dst[0], dst[1], dst[2] = o.buf[0], float64(o.ones), float64(len(o.set)-o.ones)
}

// TestMinimizeAllocsPerMiss pins the loop's allocation budget: a
// default-schedule search allocates a constant that does not grow with the
// move count or the memo misses — setup, result materialization, the
// presized memo and the objective's adjacency lists, which are bounded by
// the row's size. It holds at k=1 and at k=3 alike, so memo keys and
// vectors, archive entries and crowding scratch are reused, and at twice the
// default move budget, so nothing in the loop allocates per move or per miss.
func TestMinimizeAllocsPerMiss(t *testing.T) {
	const budget = 512
	for _, k := range []int{1, 3} {
		for _, sch := range []Schedule{DefaultSchedule(), DefaultSchedule().WithMoves(2 * DefaultSchedule().Moves)} {
			init := topo.NewConnMatrix(16, 8)
			seed := stats.NewRNG(5)
			init.Randomize(func() bool { return seed.Bool(0.5) })
			var res ParetoResult
			allocs := testing.AllocsPerRun(3, func() {
				var obj VectorMoveObjective = model.NewIncObjective(p)
				if k == 3 {
					obj = &tradeoffVector{lat: model.NewIncObjective(p)}
				}
				res = MinimizePareto(context.Background(), init, obj, ParetoOpts{ArchiveCap: 8}, sch, stats.NewRNG(9))
			})
			t.Logf("k=%d moves=%d: %.0f allocs, %d memo misses, %d entries, %d pruned",
				k, sch.Moves, allocs, res.MemoMisses, len(res.Entries), res.ArchivePruned)
			if allocs > budget {
				t.Fatalf("k=%d moves=%d: %.0f allocs for %d memo misses, want <= %d", k, sch.Moves, allocs, res.MemoMisses, budget)
			}
			if k == 3 && res.ArchivePruned == 0 {
				t.Fatal("k=3 search never pruned; the pin does not cover the crowding path")
			}
		}
	}
}
