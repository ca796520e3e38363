package topo

import "testing"

func TestRowRemove(t *testing.T) {
	r := NewRow(8, Span{From: 0, To: 3}, Span{From: 4, To: 7})
	out := r.Remove(0)
	if len(out.Express) != 1 || out.Express[0] != (Span{From: 4, To: 7}) {
		t.Fatalf("Remove(0) = %v", out)
	}
	if len(r.Express) != 2 {
		t.Fatal("Remove mutated the receiver")
	}
	if err := out.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestRowRemovePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRow(8, Span{From: 0, To: 3}).Remove(1)
}

func TestRowDedupe(t *testing.T) {
	r := NewRow(8, Span{From: 0, To: 3}, Span{From: 0, To: 3}, Span{From: 4, To: 7})
	d := r.Dedupe()
	if len(d.Express) != 2 {
		t.Fatalf("dedupe left %v", d)
	}
	// Deduping never raises a cross-section count.
	for k := 0; k < 7; k++ {
		if d.CrossSection(k) > r.CrossSection(k) {
			t.Fatal("dedupe increased a cross-section")
		}
	}
	// Idempotent.
	if !d.Dedupe().Equal(d) {
		t.Fatal("dedupe not idempotent")
	}
	// Empty row.
	if got := MeshRow(4).Dedupe(); len(got.Express) != 0 {
		t.Fatalf("mesh dedupe = %v", got)
	}
}

// avgDegree is the mean router degree on the row, the quantity the paper
// uses in Section 4.6 to argue crossbar static power stays bounded.
func avgDegree(r Row) float64 {
	if r.N == 0 {
		return 0
	}
	total := 0
	for i := 0; i < r.N; i++ {
		total += r.Degree(i)
	}
	return float64(total) / float64(r.N)
}

func TestAvgDegree(t *testing.T) {
	// Mesh row of n: end routers have 1 neighbor, interior 2: avg = 2(n-1)/n.
	if got := avgDegree(MeshRow(8)); got != 14.0/8 {
		t.Fatalf("mesh avg degree = %g", got)
	}
	// Fully connected row: every router has n-1 neighbors.
	if got := avgDegree(FlatButterflyRow(8)); got != 7 {
		t.Fatalf("FB avg degree = %g", got)
	}
	if avgDegree(Row{}) != 0 {
		t.Fatal("empty row degree")
	}
	// Section 4.6's observation on the optimal P̃(8,4): average within-row
	// ports stay well below C*k_m = 8; the paper quotes 3.5.
	opt := NewRow(8,
		Span{From: 0, To: 2}, Span{From: 0, To: 3}, Span{From: 1, To: 3},
		Span{From: 2, To: 5}, Span{From: 3, To: 6}, Span{From: 3, To: 7},
		Span{From: 5, To: 7})
	if got := avgDegree(opt); got != 3.5 {
		t.Fatalf("P(8,4) avg degree = %g, paper says 3.5", got)
	}
}

func TestConnMatrixConstructorPanics(t *testing.T) {
	for _, tc := range []struct{ n, c int }{{1, 4}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewConnMatrix(%d,%d) did not panic", tc.n, tc.c)
				}
			}()
			NewConnMatrix(tc.n, tc.c)
		}()
	}
}

func TestConnMatrixIndexPanics(t *testing.T) {
	m := NewConnMatrix(8, 4)
	for _, tc := range []struct{ layer, router int }{{-1, 1}, {3, 1}, {0, 0}, {0, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("index(%d,%d) did not panic", tc.layer, tc.router)
				}
			}()
			m.Connected(tc.layer, tc.router)
		}()
	}
}

func TestRowEqualShortcuts(t *testing.T) {
	a := NewRow(8, Span{From: 0, To: 3})
	if a.Equal(NewRow(4)) {
		t.Fatal("different n compared equal")
	}
	if a.Equal(MeshRow(8)) {
		t.Fatal("different span count compared equal")
	}
}

func TestValidateDegenerateRow(t *testing.T) {
	bad := Row{N: 0}
	if bad.Validate(1) == nil {
		t.Fatal("zero-router row accepted")
	}
	if (Row{N: 1}).Validate(1) != nil {
		t.Fatal("single-router row rejected")
	}
}

func TestCrossSectionOutOfRange(t *testing.T) {
	r := MeshRow(4)
	if r.CrossSection(-1) != 0 || r.CrossSection(3) != 0 {
		t.Fatal("out-of-range cuts must report 0")
	}
}
