package topo

import "testing"

func TestUniformTopology(t *testing.T) {
	row := NewRow(8, Span{1, 3})
	tp := Uniform("X", 8, row)
	if err := tp.Validate(2); err != nil {
		t.Fatal(err)
	}
	if tp.NumRouters() != 64 {
		t.Fatalf("routers = %d", tp.NumRouters())
	}
	for y := 0; y < 8; y++ {
		if !tp.Rows[y].Equal(row) {
			t.Fatalf("row %d differs", y)
		}
	}
}

func TestNodeIDCoords(t *testing.T) {
	tp := Mesh(8)
	for id := 0; id < 64; id++ {
		x, y := tp.Coords(id)
		if y*tp.W+x != id {
			t.Fatalf("coords round trip failed at %d", id)
		}
		if x < 0 || x >= 8 || y < 0 || y >= 8 {
			t.Fatalf("coords out of range: %d -> (%d,%d)", id, x, y)
		}
	}
}

func TestMeshDegrees(t *testing.T) {
	tp := Mesh(4)
	// Corner router 0: one row neighbor + one column neighbor.
	if d := tp.RouterDegree(0); d != 2 {
		t.Fatalf("corner degree = %d", d)
	}
	// Center router (1,1): two row + two column neighbors.
	if d := tp.RouterDegree(tp.W + 1); d != 4 {
		t.Fatalf("center degree = %d", d)
	}
	// Mesh average degree: 2*2*n*(n-1) channel endpoints over n² routers = 3
	// for n=4.
	if avg := tp.AvgRouterDegree(); avg != 3 {
		t.Fatalf("avg degree = %g", avg)
	}
}

func TestTopologyValidateErrors(t *testing.T) {
	tp := Mesh(4)
	tp.Rows = tp.Rows[:3]
	if tp.Validate(1) == nil {
		t.Fatal("missing row not caught")
	}
	tp2 := Mesh(4)
	tp2.Rows[0] = NewRow(4, Span{0, 2})
	if tp2.Validate(1) == nil {
		t.Fatal("over-limit row not caught")
	}
}

func TestUniformPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Uniform("bad", 8, MeshRow(4))
}

func TestHFBTopologyMaxCrossSection(t *testing.T) {
	tp := HFB(8)
	if got := tp.MaxCrossSection(); got != 4 {
		t.Fatalf("HFB(8) max cross-section = %d, want 4", got)
	}
	if err := tp.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenedButterflyTopology(t *testing.T) {
	tp := FlattenedButterfly(4)
	if got := tp.MaxCrossSection(); got != 4 {
		t.Fatalf("FB(4) max cross-section = %d", got)
	}
	// Every router connects to 3 row + 3 column neighbors.
	for id := 0; id < 16; id++ {
		if d := tp.RouterDegree(id); d != 6 {
			t.Fatalf("FB degree(%d) = %d", id, d)
		}
	}
}
