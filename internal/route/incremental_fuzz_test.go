package route

import (
	"testing"

	"explink/internal/topo"
)

// costModels are the edge-cost models the Incremental-vs-oracle tests run
// over: the fuzz targets pick one per input, the deterministic tests run
// each. The list keeps six entries so every checked-in corpus entry selects
// the model its file name records.
var costModels = []Params{
	{PerHop: 3, PerUnit: 1}, {PerHop: 4, PerUnit: 0}, {PerHop: 0, PerUnit: 1},
	{PerHop: 5, PerUnit: 2}, {PerHop: 1, PerUnit: 3}, {PerHop: 7, PerUnit: 1},
}

// FuzzIncrementalVsScratch drives an Incremental through the exact move
// pattern the solvers use — connection-matrix bit flips translated to span
// deltas by ConnMatrix.DeltaAt, each then committed or reverted — and pins
// every intermediate Mean/MeanMax/WeightedMean bit-identical to a full
// Scratch evaluation of the decoded row. The cost byte picks the edge-cost
// model from costModels. The ops bytes encode the walk: for each byte, the
// low bits pick the flipped bit index and bit 7 picks commit (1) or
// revert (0).
func FuzzIncrementalVsScratch(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0x00, 0x81, 0x02, 0x83, 0x04})
	f.Add(uint8(4), uint8(0), []byte{0x80, 0x81, 0x82, 0x83, 0x84, 0x05, 0x86})
	f.Add(uint8(8), uint8(1), []byte{0xff, 0x7f, 0x80, 0x00, 0xaa, 0x55, 0x91, 0x13})
	f.Add(uint8(3), uint8(2), []byte{0x90, 0x90, 0x90, 0x21, 0xa1, 0x42, 0xc3})
	f.Add(uint8(7), uint8(3), []byte{0x80, 0x81, 0x82, 0x83, 0x84, 0x05, 0x86, 0x07})
	f.Add(uint8(5), uint8(4), []byte{0xff, 0x7f, 0x80, 0x00, 0xaa, 0x55, 0x91, 0x13})
	f.Add(uint8(8), uint8(5), []byte{0x90, 0x90, 0x90, 0x21, 0xa1, 0x42, 0xc3, 0x64})

	sizes := []struct{ n, c int }{
		{4, 2}, {4, 3}, {4, 4},
		{8, 2}, {8, 3}, {8, 4},
		{16, 2}, {16, 3}, {16, 4},
	}
	f.Fuzz(func(t *testing.T, size, cost uint8, ops []byte) {
		sz := sizes[int(size)%len(sizes)]
		n, c := sz.n, sz.c
		p := costModels[int(cost)%len(costModels)]
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = float64((i*29+j*11)%7) + 0.5
			}
		}
		m := topo.NewConnMatrix(n, c)
		inc := NewIncremental(p)
		s := newScratch(p)
		inc.Reset(m.Row())
		var rem, add []topo.Span
		for step, op := range ops {
			if len(ops) > 64 && step >= 64 {
				break // bound per-input work; depth beyond this adds nothing
			}
			bit := int(op&0x7f) % m.Bits()
			rem, add = m.DeltaAt(bit, rem[:0], add[:0])
			m.FlipAt(bit)
			inc.Update(rem, add)
			row := m.Row()
			// Mean first: it is the production query of scalar searches, and
			// must not rely on an earlier reduction having synced the state.
			if got, want := inc.Mean(), s.MeanDist(row); got != want {
				t.Fatalf("%+v step %d flip %d: Mean = %v, want %v for row %v", p, step, bit, got, want, row)
			}
			wantMean, wantMax := s.MeanMax(row)
			gotMean, gotMax := inc.MeanMax()
			if gotMean != wantMean || gotMax != wantMax {
				t.Fatalf("%+v step %d flip %d: MeanMax = (%v, %v), want (%v, %v) for row %v",
					p, step, bit, gotMean, gotMax, wantMean, wantMax, row)
			}
			if got, want := inc.WeightedMean(w), s.WeightedMean(row, w); got != want {
				t.Fatalf("%+v step %d flip %d: WeightedMean = %v, want %v", p, step, bit, got, want)
			}
			if op&0x80 != 0 {
				inc.Commit()
			} else {
				m.FlipAt(bit)
				inc.Revert()
				if got, want := inc.Mean(), s.MeanDist(m.Row()); got != want {
					t.Fatalf("%+v step %d revert %d: Mean = %v, want %v", p, step, bit, got, want)
				}
				wantMean, wantMax = s.MeanMax(m.Row())
				gotMean, gotMax = inc.MeanMax()
				if gotMean != wantMean || gotMax != wantMax {
					t.Fatalf("%+v step %d revert %d: MeanMax = (%v, %v), want (%v, %v)",
						p, step, bit, gotMean, gotMax, wantMean, wantMax)
				}
			}
		}
	})
}

// FuzzIncrementalUndo drives the undo log through the move patterns the
// solvers produce beyond FuzzIncrementalVsScratch's query-then-close walk:
// moves closed with no query since their Update (the annealer's memo hits),
// and moves nested up to three deep and closed last-in-first-out (the BnB
// pattern), a nested Commit folding into its enclosing move. The size
// and cost bytes pick the row shape and edge-cost model as in
// FuzzIncrementalVsScratch. Each ops byte either opens or closes a move: at
// depth 0 it opens, at depth 3 it closes, and otherwise bit 7 picks close (1)
// or open (0). An open flips bit (low six bits) of the connection matrix and,
// if bit 6 is set, queries Mean. A close queries Mean first if bit 5 is set,
// then commits if bit 6 is set and reverts if not. Moves still open at the
// end are reverted. After every close the state, synced on a copy so the
// pending dirty region survives for the next move, must equal a fresh Reset
// of the decoded row, and a Revert must restore the dirty region and sum its
// Update found — so a move synced and then reverted leaves a clean state
// clean — except that a move opened on a dirty state and synced by a query
// reverts to that state synced: clean, with the distances checked above.
func FuzzIncrementalUndo(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0x00, 0x80, 0x41, 0xa0, 0x02, 0xc0})
	f.Add(uint8(4), uint8(1), []byte{0x40, 0x41, 0x42, 0xa0, 0xe0, 0x80, 0x03, 0xc0})
	f.Add(uint8(8), uint8(3), []byte{0x05, 0x46, 0x07, 0xe0, 0xc0, 0xa0, 0x48, 0x09, 0x80, 0xc0})
	f.Add(uint8(7), uint8(5), []byte{0x41, 0x02, 0x43, 0xc0, 0x80, 0xe0, 0x44, 0x45, 0x06})
	f.Add(uint8(5), uint8(2), []byte{0x10, 0xc0, 0x51, 0x80, 0x12, 0xe0, 0x53, 0xa0, 0x14, 0xc0})

	sizes := []struct{ n, c int }{
		{4, 2}, {4, 3}, {4, 4},
		{8, 2}, {8, 3}, {8, 4},
		{16, 2}, {16, 3}, {16, 4},
	}
	type frame struct {
		bits  []int // matrix bits flipped by the move and its committed inner moves
		r     dirtyRegion
		upper int64
	}
	f.Fuzz(func(t *testing.T, size, cost uint8, ops []byte) {
		sz := sizes[int(size)%len(sizes)]
		p := costModels[int(cost)%len(costModels)]
		m := topo.NewConnMatrix(sz.n, sz.c)
		inc := NewIncremental(p)
		fresh := NewIncremental(p)
		s := newScratch(p)
		inc.Reset(m.Row())
		var rem, add []topo.Span
		var open []frame
		query := func(step int, what string) {
			if got, want := inc.Mean(), s.MeanDist(m.Row()); got != want {
				t.Fatalf("%+v step %d %s: Mean = %v, want %v for row %v", p, step, what, got, want, m.Row())
			}
		}
		closeMove := func(step int, commit bool) {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			if commit {
				inc.Commit()
				if len(open) > 0 {
					open[len(open)-1].bits = append(open[len(open)-1].bits, top.bits...)
				}
			} else {
				for _, bit := range top.bits {
					m.FlipAt(bit)
				}
				inc.Revert()
				asFound := inc.r == top.r && inc.upper == top.upper
				if !asFound && !(top.r.dirty && !inc.r.dirty) {
					t.Fatalf("%+v step %d revert: dirty region %+v, sum %d, want %+v, %d as Update found them",
						p, step, inc.r, inc.upper, top.r, top.upper)
				}
			}
			row := m.Row()
			c := syncedCopy(inc)
			fresh.Reset(row)
			n := row.N
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if c.dist[i*n+j] != fresh.dist[i*n+j] {
						t.Fatalf("%+v step %d close (commit %v): dist[%d][%d] = %d, want %d for row %v",
							p, step, commit, i, j, c.dist[i*n+j], fresh.dist[i*n+j], row)
					}
				}
			}
			if got, want := c.Mean(), s.MeanDist(row); got != want {
				t.Fatalf("%+v step %d close (commit %v): Mean = %v, want %v for row %v", p, step, commit, got, want, row)
			}
		}
		for step, op := range ops {
			if len(ops) > 64 && step >= 64 {
				break // bound per-input work, as FuzzIncrementalVsScratch does
			}
			if len(open) == 3 || (len(open) > 0 && op&0x80 != 0) {
				if op&0x20 != 0 {
					query(step, "before close")
				}
				closeMove(step, op&0x40 != 0)
				continue
			}
			bit := int(op&0x3f) % m.Bits()
			open = append(open, frame{bits: []int{bit}, r: foundRegion(inc), upper: inc.upper})
			rem, add = m.DeltaAt(bit, rem[:0], add[:0])
			m.FlipAt(bit)
			inc.Update(rem, add)
			if op&0x40 != 0 {
				query(step, "after open")
			}
		}
		for len(open) > 0 {
			closeMove(len(ops), false)
		}
	})
}

// foundRegion is the dirty region an Update finds: the pending region
// widened over the edits not yet applied to the adjacency.
func foundRegion(inc *Incremental) dirtyRegion {
	c := *inc // markDirty only writes c.r
	for _, e := range inc.edits[inc.applied:] {
		c.markDirty(e.s)
	}
	return c.r
}

// syncedCopy returns a synced deep copy of inc's current state, leaving inc
// itself, and its pending dirty region, untouched.
func syncedCopy(inc *Incremental) *Incremental {
	c := NewIncremental(inc.p)
	c.n, c.cost, c.upper, c.r = inc.n, inc.cost, inc.upper, inc.r
	c.dist = append([]int64(nil), inc.dist...)
	for v := range inc.exRight {
		c.exRight = append(c.exRight, append([]int(nil), inc.exRight[v]...))
		c.exLeft = append(c.exLeft, append([]int(nil), inc.exLeft[v]...))
	}
	c.edits = append(c.edits, inc.edits[inc.applied:]...) // edits still pending
	c.apply()
	c.sync()
	return c
}
