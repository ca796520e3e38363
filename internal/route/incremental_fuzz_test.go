package route

import (
	"testing"

	"explink/internal/topo"
)

// fuzzParams are the edge-cost models FuzzIncrementalVsScratch picks from.
// The list keeps six entries so every checked-in corpus entry selects the
// model its file name records.
var fuzzParams = []Params{
	{PerHop: 3, PerUnit: 1}, {PerHop: 4, PerUnit: 0}, {PerHop: 0, PerUnit: 1},
	{PerHop: 5, PerUnit: 2}, {PerHop: 1, PerUnit: 3}, {PerHop: 7, PerUnit: 1},
}

// FuzzIncrementalVsScratch drives an Incremental through the exact move
// pattern the solvers use — connection-matrix bit flips translated to span
// deltas by ConnMatrix.DeltaAt, each then committed or reverted — and pins
// every intermediate Mean/MeanMax/WeightedMean bit-identical to a full
// Scratch evaluation of the decoded row. The cost byte picks the edge-cost
// model from fuzzParams. The ops bytes encode the walk: for each byte, the
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
		p := fuzzParams[int(cost)%len(fuzzParams)]
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = float64((i*29+j*11)%7) + 0.5
			}
		}
		m := topo.NewConnMatrix(n, c)
		inc := NewIncremental(p)
		s := NewScratch()
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
			if got, want := inc.Mean(), s.MeanDist(row, p); got != want {
				t.Fatalf("%+v step %d flip %d: Mean = %v, want %v for row %v", p, step, bit, got, want, row)
			}
			wantMean, wantMax := s.MeanMax(row, p)
			gotMean, gotMax := inc.MeanMax()
			if gotMean != wantMean || gotMax != wantMax {
				t.Fatalf("%+v step %d flip %d: MeanMax = (%v, %v), want (%v, %v) for row %v",
					p, step, bit, gotMean, gotMax, wantMean, wantMax, row)
			}
			if got, want := inc.WeightedMean(w), s.WeightedMean(row, p, w); got != want {
				t.Fatalf("%+v step %d flip %d: WeightedMean = %v, want %v", p, step, bit, got, want)
			}
			if op&0x80 != 0 {
				inc.Commit()
			} else {
				m.FlipAt(bit)
				inc.Revert()
				if got, want := inc.Mean(), s.MeanDist(m.Row(), p); got != want {
					t.Fatalf("%+v step %d revert %d: Mean = %v, want %v", p, step, bit, got, want)
				}
				wantMean, wantMax = s.MeanMax(m.Row(), p)
				gotMean, gotMax = inc.MeanMax()
				if gotMean != wantMean || gotMax != wantMax {
					t.Fatalf("%+v step %d revert %d: MeanMax = (%v, %v), want (%v, %v)",
						p, step, bit, gotMean, gotMax, wantMean, wantMax)
				}
			}
		}
	})
}
