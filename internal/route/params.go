// Package route computes the deterministic, deadlock-free routing the paper
// deploys on express-link rows (Section 4.5.1): per-direction shortest paths
// within a row (or column) and next-hop lookup tables for each router
// (Fig. 3b). The channel-dependency-graph check that proves the routing
// deadlock-free is the test-only package oracle/cdg.
//
// Packets traverse a row monotonically (no U-turns), so the rightward and
// leftward link sets form two DAGs. The paper computes shortest paths with
// Floyd-Warshall run twice, once per direction, masking the opposing edges
// with infinite weight; this package computes them with an equivalent
// O(n·(n+m)) DAG dynamic program, and its tests keep the paper's algorithm
// as the oracle the two must agree with.
package route

import "fmt"

// Params carries the per-edge cost model of Eq. (1): traversing a hop costs
// PerHop cycles of router pipeline (Tr plus average contention Tc), and each
// unit of link length costs PerUnit cycles (Tl; express links are repeatered,
// so a span of length d costs d·Tl). Costs are whole cycles.
type Params struct {
	PerHop  int
	PerUnit int
}

// EdgeCost returns the head-latency cost of one hop across a link of the
// given unit length.
func (p Params) EdgeCost(length int) float64 {
	return float64(p.PerHop + length*p.PerUnit)
}

// Check rejects cost models a row of n routers cannot be scored under
// exactly: negative costs, or n²·(n−1)·(PerHop+PerUnit) at or past 2^53.
// Every distance is at most the all-local path's (n−1)·(PerHop+PerUnit), so
// under the bound every distance and every partial sum over the n² pairs is
// an integer float64 represents exactly. Addition order then cannot change a
// sum, and the leftward i->j distance equals the rightward j->i one.
func (p Params) Check(n int) error {
	if p.PerHop < 0 || p.PerUnit < 0 {
		return fmt.Errorf("route: negative edge costs %+v", p)
	}
	fn := float64(n)
	if fn*fn*max(fn-1, 0)*(float64(p.PerHop)+float64(p.PerUnit)) >= 1<<53 {
		return fmt.Errorf("route: edge costs %+v too large for exact sums over a row of %d", p, n)
	}
	return nil
}
