package topo

import "testing"

func TestRectTopology(t *testing.T) {
	tp := MeshRect(8, 4)
	if tp.W != 8 || tp.H != 4 || tp.NumRouters() != 32 {
		t.Fatalf("shape: %dx%d (%d routers)", tp.W, tp.H, tp.NumRouters())
	}
	if err := tp.Validate(1); err != nil {
		t.Fatal(err)
	}
	// Node id round trip across the rectangle.
	for id := 0; id < 32; id++ {
		x, y := tp.Coords(id)
		if x < 0 || x >= 8 || y < 0 || y >= 4 {
			t.Fatalf("coords(%d) = (%d,%d)", id, x, y)
		}
		if y*tp.W+x != id {
			t.Fatalf("round trip failed at %d", id)
		}
	}
	// Corner degree: 1 row + 1 column neighbor.
	if d := tp.RouterDegree(0); d != 2 {
		t.Fatalf("corner degree = %d", d)
	}
}

func TestRectWithPlacements(t *testing.T) {
	row := NewRow(8, Span{From: 0, To: 7})
	col := NewRow(4, Span{From: 0, To: 2})
	tp := Rect("r", 8, 4, row, col)
	if err := tp.Validate(2); err != nil {
		t.Fatal(err)
	}
	if tp.MaxCrossSection() != 2 {
		t.Fatalf("max cross-section = %d", tp.MaxCrossSection())
	}
	for y := 0; y < 4; y++ {
		if !tp.Rows[y].Equal(row) {
			t.Fatalf("row %d differs", y)
		}
	}
	for x := 0; x < 8; x++ {
		if !tp.Cols[x].Equal(col) {
			t.Fatalf("col %d differs", x)
		}
	}
}

func TestRectPanicsOnMismatch(t *testing.T) {
	for i, f := range []func(){
		func() { Rect("bad", 8, 4, MeshRow(4), MeshRow(4)) }, // row length wrong
		func() { Rect("bad", 8, 4, MeshRow(8), MeshRow(8)) }, // col length wrong
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNPanicsOnRectangle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N() on a rectangle must panic")
		}
	}()
	MeshRect(8, 4).N()
}

func TestNOnSquare(t *testing.T) {
	if Mesh(8).N() != 8 {
		t.Fatal("square N broken")
	}
}

func TestRectValidateDegenerate(t *testing.T) {
	bad := Topology{Name: "x", W: 0, H: 4}
	if bad.Validate(1) == nil {
		t.Fatal("degenerate size accepted")
	}
}
