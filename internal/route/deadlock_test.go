package route_test

import (
	"testing"

	"explink/internal/oracle/cdg"
	"explink/internal/route"
	"explink/internal/stats"
	"explink/internal/topo"
)

// These tests check Section 4.5.1's deadlock-freedom argument against the
// tables Compute actually builds, through the test-only checker in
// oracle/cdg.

func TestRowCDGAcyclicMesh(t *testing.T) {
	ok, err := cdg.RowAcyclic(route.Compute(topo.MeshRow(8), route.TestParams))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("mesh row CDG must be acyclic")
	}
}

func TestRowCDGAcyclicRandom(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(13)
		row := route.RandomRow(rng, n, 5)
		ok, err := cdg.RowAcyclic(route.Compute(row, route.TestParams))
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if !ok {
			t.Fatalf("cyclic CDG for row %v", row)
		}
	}
}

func TestTopologyCDGAcyclic(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.Mesh(4),
		topo.HFB(8),
		topo.FlattenedButterfly(4),
	} {
		ok, err := cdg.TopologyAcyclic(tp, route.TestParams)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		if !ok {
			t.Fatalf("%s: XY routing produced a cyclic CDG", tp.Name)
		}
	}
}

func TestTopologyCDGAcyclicRandomPlacements(t *testing.T) {
	rng := stats.NewRNG(81)
	for trial := 0; trial < 10; trial++ {
		row := route.RandomRow(rng, 8, 4)
		tp := topo.Uniform("rand", 8, row)
		ok, err := cdg.TopologyAcyclic(tp, route.TestParams)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("cyclic CDG for placement %v", row)
		}
	}
}

func TestCDGDetectsCycles(t *testing.T) {
	// Sanity-check the checker itself on hand-built tables. These next hops
	// U-turn, so 0->2 runs 0,1,2, 1->0 runs 1,2,0 and 2->1 runs 2,0,1: the
	// channels 0-1, 1-2 and 2-0 wait on each other in a cycle.
	cyclic := &route.RowPaths{N: 3, Next: [][]int{{0, 1, 1}, {2, 1, 2}, {0, 0, 2}}}
	if ok, err := cdg.RowAcyclic(cyclic); err != nil || ok {
		t.Fatalf("cycle not detected (acyclic %v, err %v)", ok, err)
	}
	// Two routers: each path is one channel, so nothing depends on anything.
	pair := &route.RowPaths{N: 2, Next: [][]int{{0, 1}, {0, 1}}}
	if ok, err := cdg.RowAcyclic(pair); err != nil || !ok {
		t.Fatalf("acyclic graph misreported (acyclic %v, err %v)", ok, err)
	}
}
