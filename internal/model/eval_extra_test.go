package model

import (
	"strings"
	"testing"

	"explink/internal/topo"
)

func TestEvalString(t *testing.T) {
	e := Eval{C: 4, Width: 64, Head: 13.12, Ser: 3.2, Total: 16.32}
	s := e.String()
	for _, want := range []string{"C=4", "64b", "16.32"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Eval.String() = %q", s)
		}
	}
}

// xyHops is the hop count of the XY route from src to dst through tp's
// tables: the source-row leg plus the destination-column leg.
func xyHops(t *testing.T, tp *TopoPaths, src, dst int) int {
	t.Helper()
	sx, sy := tp.T.Coords(src)
	dx, dy := tp.T.Coords(dst)
	rowLeg, err := tp.Rows[sy].Path(sx, dx)
	if err != nil {
		t.Fatal(err)
	}
	colLeg, err := tp.Cols[dx].Path(sy, dy)
	if err != nil {
		t.Fatal(err)
	}
	return len(rowLeg) - 1 + len(colLeg) - 1
}

func TestPairAndMeanHops(t *testing.T) {
	tp := ComputeTopoPaths(topo.Mesh(4), DefaultParams())
	// Mesh hops are Manhattan distances.
	var sum int
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			sx, sy := src%4, src/4
			dx, dy := dst%4, dst/4
			want := max(sx-dx, dx-sx) + max(sy-dy, dy-sy)
			got := xyHops(t, tp, src, dst)
			if got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", src, dst, got, want)
			}
			sum += got
		}
	}
	// Mean over all 256 ordered pairs: 2 * rowMeanDistance where the row
	// mean over 16 pairs is 20/16.
	if got, want := float64(sum)/256, 2*20.0/16.0; got != want {
		t.Fatalf("mean hops = %g, want %g", got, want)
	}
	// Single-hop everywhere on the flattened butterfly (off-diagonal).
	fb := ComputeTopoPaths(topo.FlattenedButterfly(4), DefaultParams())
	if got := xyHops(t, fb, 0, 15); got != 2 { // one row hop + one column hop
		t.Fatalf("FB corner hops = %d", got)
	}
}

func TestEvalTopologyErrors(t *testing.T) {
	cfg := DefaultConfig(8)
	if _, err := cfg.EvalTopology(topo.Mesh(4), 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := cfg.EvalTopology(topo.HFB(8), 1); err == nil {
		t.Fatal("over-limit topology accepted")
	}
	if _, err := cfg.EvalTopology(topo.Mesh(8), 1024); err == nil {
		t.Fatal("infeasible width accepted")
	}
}

func TestMaxZeroLoadErrors(t *testing.T) {
	cfg := DefaultConfig(8)
	if _, err := cfg.MaxZeroLoad(topo.Mesh(8), 1<<20); err == nil {
		t.Fatal("infeasible link limit accepted")
	}
}

func TestFlitsForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FlitsFor(128, 0)
}

func TestValidateMixNegativeFraction(t *testing.T) {
	mix := []PacketClass{{Name: "a", Bits: 64, Frac: -0.1}, {Name: "b", Bits: 64, Frac: 1.1}}
	if ValidateMix(mix) == nil {
		t.Fatal("negative fraction accepted")
	}
}
