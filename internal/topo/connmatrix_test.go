package topo

import (
	"strings"
	"testing"
	"testing/quick"

	"explink/internal/stats"
)

func TestConnMatrixShape(t *testing.T) {
	m := NewConnMatrix(8, 4)
	if m.n != 8 || m.c != 4 || m.Bits() != 18 {
		t.Fatalf("shape: n=%d c=%d bits=%d", m.n, m.c, m.Bits())
	}
	if NewConnMatrix(8, 1).Bits() != 0 {
		t.Fatal("C=1 must have zero bits")
	}
	if NewConnMatrix(2, 4).Bits() != 0 {
		t.Fatal("n=2 must have zero bits")
	}
}

func TestConnMatrixZeroDecodesToMesh(t *testing.T) {
	m := NewConnMatrix(8, 4)
	if !m.Row().Equal(MeshRow(8)) {
		t.Fatalf("all-zero matrix decoded to %v", m.Row())
	}
}

func TestConnMatrixPaperFig2TopLayer(t *testing.T) {
	// Fig. 2 of the paper (1-based routers): in the top layer the connection
	// points at routers 3, 5, 6, 7 are connected, yielding express links
	// 2-4 and 4-8. In 0-based terms: bits at interior routers 2, 4, 5, 6
	// yield spans 1-3 and 3-7.
	m := NewConnMatrix(8, 4)
	for _, r := range []int{2, 4, 5, 6} {
		m.Set(0, r, true)
	}
	row := m.Row()
	want := NewRow(8, Span{1, 3}, Span{3, 7})
	if !row.Equal(want) {
		t.Fatalf("decoded %v, want %v", row, want)
	}
}

func TestConnMatrixAllOnesLayer(t *testing.T) {
	// A layer with every interior point connected is a single end-to-end
	// express link.
	m := NewConnMatrix(8, 2)
	for r := 1; r <= 6; r++ {
		m.Set(0, r, true)
	}
	want := NewRow(8, Span{0, 7})
	if !m.Row().Equal(want) {
		t.Fatalf("decoded %v", m.Row())
	}
}

func TestConnMatrixUnitSegmentsDropped(t *testing.T) {
	// Alternating bits create length-1 and length-2 segments; the unit ones
	// must be dropped (they would duplicate local links).
	m := NewConnMatrix(6, 2)
	m.Set(0, 1, true) // segment 0-2
	// router 2 disconnected -> segment boundary
	m.Set(0, 3, true) // segment 2-4
	// router 4 disconnected -> unit segment 4-5 dropped
	want := NewRow(6, Span{0, 2}, Span{2, 4})
	if !m.Row().Equal(want) {
		t.Fatalf("decoded %v, want %v", m.Row(), want)
	}
}

func TestConnMatrixDecodeAlwaysValid(t *testing.T) {
	// Property: any bit pattern decodes to a placement within link limit C.
	if err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 4 + rng.Intn(13)
		c := 2 + rng.Intn(5)
		m := NewConnMatrix(n, c)
		m.Randomize(func() bool { return rng.Bool(0.5) })
		return m.Row().Validate(c) == nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConnMatrixFlipAlwaysValid(t *testing.T) {
	// Property: flipping any single bit keeps the decoded placement valid —
	// the guarantee that makes the SA candidate generator never produce
	// infeasible moves (Section 4.4.2).
	rng := stats.NewRNG(99)
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(12)
		c := 2 + rng.Intn(5)
		m := NewConnMatrix(n, c)
		m.Randomize(func() bool { return rng.Bool(0.4) })
		for i := 0; i < m.Bits(); i++ {
			m2 := m.Clone()
			m2.FlipAt(i)
			if err := m2.Row().Validate(c); err != nil {
				t.Fatalf("flip %d broke validity: %v", i, err)
			}
		}
	}
}

func TestMatrixFromRowRoundTrip(t *testing.T) {
	// Property: encode(decode) preserves the placement (though not the bit
	// pattern — layer assignment is not unique).
	if err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 4 + rng.Intn(13)
		c := 2 + rng.Intn(5)
		row := randomRow(rng, n, c)
		m, err := MatrixFromRow(row, c)
		if err != nil {
			return false
		}
		return m.Row().Equal(row)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixFromRowRejectsOverLimit(t *testing.T) {
	row := NewRow(8, Span{0, 4}, Span{1, 5}, Span{2, 6})
	if _, err := MatrixFromRow(row, 2); err == nil {
		t.Fatal("expected error packing 3 overlapping spans at C=2")
	}
}

func TestMatrixFromRowHFB(t *testing.T) {
	row := HFBRow(8)
	m, err := MatrixFromRow(row, row.MaxCrossSection())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Row().Equal(row) {
		t.Fatalf("HFB round trip failed: %v", m.Row())
	}
}

func TestConnMatrixFlipAt(t *testing.T) {
	m := NewConnMatrix(8, 4)
	layer, router := m.FlipAt(7) // second layer, second interior router
	if layer != 1 || router != 2 {
		t.Fatalf("FlipAt(7) = (%d,%d)", layer, router)
	}
	if !m.Connected(1, 2) {
		t.Fatal("bit not set")
	}
	m.FlipAt(7)
	if m.Connected(1, 2) {
		t.Fatal("bit not cleared")
	}
}

func TestConnMatrixString(t *testing.T) {
	m := NewConnMatrix(8, 3)
	m.Set(0, 1, true)
	s := m.String()
	if !strings.Contains(s, "*") || !strings.Contains(s, "o") {
		t.Fatalf("String = %q", s)
	}
}

func TestConnMatrixEqualClone(t *testing.T) {
	m := NewConnMatrix(8, 4)
	m.Set(1, 3, true)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone differs")
	}
	c.FlipAt(0)
	if m.Equal(c) {
		t.Fatal("mutating the clone changed the original view")
	}
}
