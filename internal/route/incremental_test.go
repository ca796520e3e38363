package route

import (
	"math"
	"testing"

	"explink/internal/stats"
	"explink/internal/topo"
)

// reference recomputes the full-evaluation answers for the incremental
// evaluator's current logical row.
func refMeanMax(row topo.Row) (float64, float64) {
	return newScratch(testParams).MeanMax(row)
}

func TestIncrementalResetMatchesScratch(t *testing.T) {
	// One evaluator across rows of varying sizes: every Reset must answer
	// exactly like a fresh Scratch, proving buffer reuse leaks no stale state.
	rng := stats.NewRNG(7)
	inc := NewIncremental(testParams)
	s := newScratch(testParams)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(14)
		c := 1 + rng.Intn(6)
		row := randomRow(rng, n, c)
		inc.Reset(row)
		wantMean, wantMax := s.MeanMax(row)
		gotMean, gotMax := inc.MeanMax()
		if gotMean != wantMean || gotMax != wantMax {
			t.Fatalf("trial %d (row %v): MeanMax = (%v, %v), want (%v, %v)",
				trial, row, gotMean, gotMax, wantMean, wantMax)
		}
		if got := inc.Mean(); got != wantMean {
			t.Fatalf("trial %d: Mean = %v, want %v", trial, got, wantMean)
		}
	}
}

// applyEdit mirrors one incremental move on a plain span multiset.
func applyEdit(spans []topo.Span, removed, added []topo.Span) []topo.Span {
	out := append([]topo.Span(nil), spans...)
	for _, r := range removed {
		for k, s := range out {
			if s == r {
				out = append(out[:k], out[k+1:]...)
				break
			}
		}
	}
	return append(out, added...)
}

func TestIncrementalFlipRevertCommitMatchesScratch(t *testing.T) {
	// Random walks of single-span flips with random accept/reject decisions:
	// at every step the incremental answers must be bit-identical to a full
	// evaluation of the shadow row, for all three reductions.
	rng := stats.NewRNG(11)
	inc := NewIncremental(testParams)
	s := newScratch(testParams)
	for _, n := range []int{4, 8, 16} {
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = float64((i*13+j*7)%5) + 0.25
			}
		}
		shadow := topo.MeshRow(n)
		inc.Reset(shadow)
		for step := 0; step < 400; step++ {
			sp := topo.Span{From: rng.Intn(n - 2), To: 0}
			sp.To = sp.From + 2 + rng.Intn(n-sp.From-2)
			// Each step toggles presence: a span already in the shadow row is
			// removed, an absent one is added.
			removed, added := []topo.Span{sp}, []topo.Span(nil)
			if !present(shadow.Express, sp) {
				removed, added = added, removed
			}
			inc.Update(removed, added)
			cand := applyEdit(shadow.Express, removed, added)
			candRow := topo.Row{N: n, Express: cand}
			wantMean, wantMax := s.MeanMax(candRow)
			gotMean, gotMax := inc.MeanMax()
			if gotMean != wantMean || gotMax != wantMax {
				t.Fatalf("n=%d step %d: flip %v: MeanMax = (%v, %v), want (%v, %v)",
					n, step, sp, gotMean, gotMax, wantMean, wantMax)
			}
			if got, want := inc.WeightedMean(w), s.WeightedMean(candRow, w); got != want {
				t.Fatalf("n=%d step %d: WeightedMean = %v, want %v", n, step, got, want)
			}
			if rng.Bool(0.5) {
				inc.Commit()
				shadow = candRow
			} else {
				inc.Revert()
				wantMean, wantMax = s.MeanMax(shadow)
				gotMean, gotMax = inc.MeanMax()
				if gotMean != wantMean || gotMax != wantMax {
					t.Fatalf("n=%d step %d: after revert: MeanMax = (%v, %v), want (%v, %v)",
						n, step, gotMean, gotMax, wantMean, wantMax)
				}
			}
		}
	}
}

func present(spans []topo.Span, sp topo.Span) bool {
	for _, s := range spans {
		if s == sp {
			return true
		}
	}
	return false
}

func TestIncrementalUpdateDuplicateSpans(t *testing.T) {
	// Row semantics are a multiset: adding an already-present span must leave
	// all distances unchanged, and removing one instance must restore them.
	inc := NewIncremental(testParams)
	sp := topo.Span{From: 1, To: 5}
	row := topo.Row{N: 8, Express: []topo.Span{sp}}
	inc.Reset(row)
	base, baseMax := inc.MeanMax()
	inc.Update(nil, []topo.Span{sp}) // duplicate add
	if m, mx := inc.MeanMax(); m != base || mx != baseMax {
		t.Fatalf("duplicate add changed MeanMax: (%v, %v) vs (%v, %v)", m, mx, base, baseMax)
	}
	inc.Update([]topo.Span{sp}, nil) // remove one instance; the other remains
	if m, mx := inc.MeanMax(); m != base || mx != baseMax {
		t.Fatalf("removing one duplicate changed MeanMax: (%v, %v) vs (%v, %v)", m, mx, base, baseMax)
	}
	inc.Revert()
	inc.Revert()
	if m, mx := inc.MeanMax(); m != base || mx != baseMax {
		t.Fatalf("revert pair changed MeanMax: (%v, %v) vs (%v, %v)", m, mx, base, baseMax)
	}
}

func TestIncrementalNestedMovesLIFO(t *testing.T) {
	// The D&C and BnB searches stack moves; closing them out of order must
	// restore the exact pre-move answers at every level.
	rng := stats.NewRNG(23)
	inc := NewIncremental(testParams)
	s := newScratch(testParams)
	row := randomRow(rng, 12, 3)
	inc.Reset(row)
	a, b := topo.Span{From: 0, To: 6}, topo.Span{From: 3, To: 11}
	inc.Update(nil, []topo.Span{a})
	inc.Update(nil, []topo.Span{b})
	bothRow := topo.Row{N: 12, Express: append(append([]topo.Span{}, row.Express...), a, b)}
	if got, want := inc.Mean(), s.MeanDist(bothRow); got != want {
		t.Fatalf("nested adds: Mean = %v, want %v", got, want)
	}
	inc.Revert() // undo b
	oneRow := topo.Row{N: 12, Express: append(append([]topo.Span{}, row.Express...), a)}
	if got, want := inc.Mean(), s.MeanDist(oneRow); got != want {
		t.Fatalf("after inner revert: Mean = %v, want %v", got, want)
	}
	inc.Commit() // keep a
	if got, want := inc.Mean(), s.MeanDist(oneRow); got != want {
		t.Fatalf("after commit: Mean = %v, want %v", got, want)
	}
}

func TestIncrementalWeightedFallbacks(t *testing.T) {
	inc := NewIncremental(testParams)
	row := topo.Row{N: 6, Express: []topo.Span{{From: 0, To: 4}}}
	inc.Reset(row)
	mean := inc.Mean()
	if got := inc.WeightedMean(nil); got != mean {
		t.Fatalf("nil weights: %v, want uniform mean %v", got, mean)
	}
	zero := make([][]float64, 6)
	for i := range zero {
		zero[i] = make([]float64, 6)
	}
	if got := inc.WeightedMean(zero); got != mean {
		t.Fatalf("all-zero weights: %v, want uniform mean %v", got, mean)
	}
}

func TestIncrementalPanics(t *testing.T) {
	for name, fn := range map[string]func(inc *Incremental){
		"revert without move": func(inc *Incremental) { inc.Revert() },
		"commit without move": func(inc *Incremental) { inc.Commit() },
		// A removal reaches the adjacency at the next query or Commit, or
		// is dropped unapplied by a Revert; each checks it.
		"remove absent span, query":  func(inc *Incremental) { inc.Update([]topo.Span{{From: 0, To: 5}}, nil); inc.Mean() },
		"remove absent span, commit": func(inc *Incremental) { inc.Update([]topo.Span{{From: 0, To: 5}}, nil); inc.Commit() },
		"remove absent span, revert": func(inc *Incremental) { inc.Update([]topo.Span{{From: 0, To: 5}}, nil); inc.Revert() },
		"remove a span twice, revert": func(inc *Incremental) {
			inc.Update(nil, []topo.Span{{From: 0, To: 5}})
			inc.Commit()
			inc.Update([]topo.Span{{From: 0, To: 5}, {From: 0, To: 5}}, nil)
			inc.Revert()
		},
		"invalid span": func(inc *Incremental) { inc.Update(nil, []topo.Span{{From: 3, To: 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			inc := NewIncremental(testParams)
			inc.Reset(topo.MeshRow(8))
			fn(inc)
		}()
	}
}

// TestParamsCheckBound pins which cost models Incremental accepts: both
// costs non-negative, with n²·(n−1)·(PerHop+PerUnit) below 2^53 so every
// sum over the n² pairs is exact. Reset panics on the rest.
func TestParamsCheckBound(t *testing.T) {
	for _, tc := range []struct {
		p  Params
		n  int
		ok bool
	}{
		{Params{PerHop: 3, PerUnit: 1}, 16, true},
		{Params{PerHop: 4, PerUnit: 0}, 1024, true},
		{Params{PerHop: 0, PerUnit: 0}, 1 << 20, true},
		{Params{PerHop: 3, PerUnit: 1}, 1, true},
		{Params{PerHop: 1 << 20, PerUnit: 1}, 1024, true},
		{Params{PerHop: 1 << 24, PerUnit: 0}, 1024, false}, // 2^20·1023·2^24 > 2^53
		{Params{PerHop: 1<<51 - 1, PerUnit: 0}, 2, true},   // 4·(2^51−1) < 2^53
		{Params{PerHop: 1<<51 - 1, PerUnit: 1}, 2, false},  // 4·2^51 = 2^53
		{Params{PerHop: 0, PerUnit: 1 << 51}, 2, false},
		{Params{PerHop: math.MaxInt, PerUnit: math.MaxInt}, 2, false},
		{Params{PerHop: -1, PerUnit: 1}, 16, false},
		{Params{PerHop: 3, PerUnit: -1}, 16, false},
	} {
		err := tc.p.Check(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("Check(%+v, %d) = %v, want ok %v", tc.p, tc.n, err, tc.ok)
		}
		if tc.n > 16 {
			continue
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewIncremental(tc.p).Reset(topo.MeshRow(tc.n))
			return false
		}()
		if panicked == tc.ok {
			t.Errorf("%+v n=%d: Reset panicked %v, want %v", tc.p, tc.n, panicked, !tc.ok)
		}
	}
}

// TestIncrementalMoveAllocs pins a rejected move, Update → Mean → Revert on
// a warmed evaluator, to zero allocations: Reset presizes the undo log for a
// full sync, and the edit log and the move stack keep their capacity.
func TestIncrementalMoveAllocs(t *testing.T) {
	m := topo.NewConnMatrix(16, 8)
	rng := stats.NewRNG(3)
	m.Randomize(func() bool { return rng.Bool(0.5) })
	inc := NewIncremental(testParams)
	inc.Reset(m.Row())
	if got, want := cap(inc.undo), 16*15/2; got < want {
		t.Fatalf("Reset presized the undo log to %d entries, want >= %d", got, want)
	}
	var rem, add []topo.Span
	// One run rejects a move at every bit. AllocsPerRun makes one warm-up
	// run, so the result counts every allocation of a second full pass.
	moves := func() {
		for bit := range m.Bits() {
			rem, add = m.DeltaAt(bit, rem[:0], add[:0])
			inc.Update(rem, add)
			inc.Mean()
			inc.Revert()
		}
	}
	if allocs := testing.AllocsPerRun(1, moves); allocs != 0 {
		t.Fatalf("%d rejected moves allocated %v times, want 0", m.Bits(), allocs)
	}
}

// BenchmarkIncrementalMove is the annealer's move on an n=16, C=8 row:
// ConnMatrix.DeltaAt → Update → Mean, then Revert on about 40% of moves (the
// rejection rate of a default-schedule search) and Commit on the rest.
func BenchmarkIncrementalMove(b *testing.B) {
	m := topo.NewConnMatrix(16, 8)
	rng := stats.NewRNG(5)
	m.Randomize(func() bool { return rng.Bool(0.5) })
	inc := NewIncremental(testParams)
	inc.Reset(m.Row())
	var rem, add []topo.Span
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bit := rng.Intn(m.Bits())
		rem, add = m.DeltaAt(bit, rem[:0], add[:0])
		m.FlipAt(bit)
		inc.Update(rem, add)
		inc.Mean()
		if rng.Bool(0.4) {
			m.FlipAt(bit)
			inc.Revert()
		} else {
			inc.Commit()
		}
	}
}
