package route

import (
	"math/bits"
	"testing"

	"explink/internal/stats"
	"explink/internal/topo"
)

// mirrorRows returns every connection matrix's row for n <= 6, C <= 3, then
// 200 random n=16, C=8 rows.
func mirrorRows() []topo.Row {
	var rows []topo.Row
	for n := 2; n <= 6; n++ {
		for c := 1; c <= 3; c++ {
			m := topo.NewConnMatrix(n, c)
			rows = append(rows, m.Row())
			// Gray-code walk: step k flips bit ctz(k), visiting every pattern.
			for k := 1; k < 1<<m.Bits(); k++ {
				m.FlipAt(bits.TrailingZeros(uint(k)))
				rows = append(rows, m.Row())
			}
		}
	}
	rng := stats.NewRNG(16)
	m := topo.NewConnMatrix(16, 8)
	for range 200 {
		m.Randomize(func() bool { return rng.Bool(0.5) })
		rows = append(rows, m.Row())
	}
	return rows
}

// asymmetricPairs counts the pairs whose leftward and rightward distances
// differ in any bit.
func asymmetricPairs(rows []topo.Row, p Params) (pairs, asym int) {
	for _, row := range rows {
		d := Compute(row, p).Dist
		for i := range row.N {
			for j := range i {
				pairs++
				if d[i][j] != d[j][i] {
					asym++
				}
			}
		}
	}
	return pairs, asym
}

// TestMirrorSymmetryIntegerCosts is the paper oracle behind Incremental's
// one-direction sweep: every link is bidirectional and EdgeCost depends only
// on length, so the leftward i->j path is the rightward j->i path backwards.
// With integer costs the two distances are the same exact integer, so the
// Floyd-Warshall pass per direction of §4.5.1 computes one matrix twice.
func TestMirrorSymmetryIntegerCosts(t *testing.T) {
	rows := mirrorRows()
	for _, p := range []Params{{PerHop: 3, PerUnit: 1}, {PerHop: 4, PerUnit: 0}, {PerHop: 0, PerUnit: 1}} {
		if pairs, asym := asymmetricPairs(rows, p); asym != 0 {
			t.Errorf("%+v: %d of %d pairs asymmetric, want 0", p, asym, pairs)
		}
	}
}
