package bnb

import (
	"math"
	"testing"

	"explink/internal/model"
	"explink/internal/oracle"
	"explink/internal/topo"
)

var p = model.DefaultParams()

func TestOptimalRowC1IsMesh(t *testing.T) {
	res := OptimalRow(8, 1, p)
	if !res.Row.Equal(topo.MeshRow(8)) {
		t.Fatalf("C=1 optimum = %v", res.Row)
	}
	if math.Abs(res.Mean-10.5) > 1e-9 {
		t.Fatalf("mesh mean = %g", res.Mean)
	}
}

func TestOptimalRow42(t *testing.T) {
	// P(4,2): one express link fits; 0-2, 1-3 and 0-3 all give mean 4.25.
	res := OptimalRow(4, 2, p)
	if math.Abs(res.Mean-4.25) > 1e-9 {
		t.Fatalf("P(4,2) mean = %g, want 4.25", res.Mean)
	}
	if err := res.Row.Validate(2); err != nil {
		t.Fatal(err)
	}
	if len(res.Row.Express) != 1 {
		t.Fatalf("P(4,2) optimum uses %d spans", len(res.Row.Express))
	}
}

func TestOptimalRespectsLimit(t *testing.T) {
	for _, tc := range []struct{ n, c int }{{6, 2}, {6, 3}, {8, 2}, {8, 3}} {
		res := OptimalRow(tc.n, tc.c, p)
		if err := res.Row.Validate(tc.c); err != nil {
			t.Fatalf("P(%d,%d): %v", tc.n, tc.c, err)
		}
		if res.Evals <= 0 {
			t.Fatalf("P(%d,%d) evals = %d", tc.n, tc.c, res.Evals)
		}
	}
}

func TestOptimalMonotoneInC(t *testing.T) {
	// A larger link limit can only help the head latency.
	prev := math.Inf(1)
	for _, c := range []int{1, 2, 3, 4} {
		res := OptimalRow(8, c, p)
		if res.Mean > prev+1e-9 {
			t.Fatalf("optimum worsened at C=%d: %g > %g", c, res.Mean, prev)
		}
		prev = res.Mean
	}
}

func TestOptimalBeatsFixedDesigns(t *testing.T) {
	// The optimum at the HFB's own link budget must be at least as good as
	// the HFB row.
	hfb := topo.HFBRow(8)
	c := hfb.MaxCrossSection()
	res := OptimalRow(8, c, p)
	if hfbMean := model.RowMean(hfb, p); res.Mean > hfbMean+1e-9 {
		t.Fatalf("optimum %g worse than HFB %g", res.Mean, hfbMean)
	}
}

func TestExhaustiveMatrixMatchesBranchAndBound(t *testing.T) {
	// The paper claims the connection-matrix space loses no valid solutions;
	// its optimum must therefore match the raw-space optimum.
	for _, tc := range []struct{ n, c int }{{4, 2}, {5, 2}, {6, 2}, {6, 3}, {8, 2}, {8, 3}} {
		raw := OptimalRow(tc.n, tc.c, p)
		mat := oracle.ExhaustiveMatrix(tc.n, tc.c, p.Route().PerHop, p.Route().PerUnit)
		if math.Abs(raw.Mean-mat.Mean) > 1e-9 {
			t.Fatalf("P(%d,%d): raw optimum %g != matrix optimum %g (rows %v vs %v)",
				tc.n, tc.c, raw.Mean, mat.Mean, raw.Row, mat.Row)
		}
	}
}

func TestExhaustiveMatrixEvalCount(t *testing.T) {
	res := oracle.ExhaustiveMatrix(6, 2, p.Route().PerHop, p.Route().PerUnit)
	if res.Evals != 16 { // 2^((6-2)*(2-1))
		t.Fatalf("evals = %d, want 16", res.Evals)
	}
}

func TestExhaustiveMatrixPanicsWhenHuge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized space")
		}
	}()
	oracle.ExhaustiveMatrix(16, 4, p.Route().PerHop, p.Route().PerUnit)
}

func TestAllSpans(t *testing.T) {
	spans := allSpans(5)
	// C(5,2) - 4 adjacent pairs = 6.
	if len(spans) != 6 {
		t.Fatalf("allSpans(5) = %v", spans)
	}
	for _, s := range spans {
		if !s.Valid(5) {
			t.Fatalf("invalid span %v", s)
		}
	}
}

func TestOptimalRowDegenerate(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		res := OptimalRow(n, 4, p)
		if err := res.Row.Validate(4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if res := OptimalRow(3, 2, p); len(res.Row.Express) != 1 {
		t.Fatalf("P(3,2) should place the single 0-2 span, got %v", res.Row)
	}
}

func TestOptimalPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	OptimalRow(0, 1, p)
}
