package sim

// This file implements the router microarchitecture of Fig. 3: input-buffered
// virtual-channel routers with a lookup-table routing unit, separable
// round-robin VC and switch allocators, and credit-based wormhole flow
// control. Express topologies simply give routers more, narrower ports.

// delivery is one flit on a channel wire, tagged with the downstream VC it
// was allocated. Its due cycle is not stored: the grant that sent it set the
// channel's bit in the simulator's due wheel at that cycle.
type delivery struct {
	f  flit
	vc int32
}

// channel is one directed network link. Express channels have latency equal
// to their Manhattan length (they are segmented into unit-length repeatered
// wires, Section 2.2).
type channel struct {
	latency  int64
	lenUnits int64
	idx      int // position in Simulator.channels: the deterministic delivery order
	src      *router
	dst      *router
	dstPort  int
	flits    int64     // total flits carried (utilization accounting)
	q        delivRing // FIFO of flits on the wire, oldest (next due) first
}

// outPort is one router output: either a network channel or the ejection
// port to the local NI.
type outPort struct {
	ch      *channel // nil for the ejection port
	credits []int    // free downstream buffer slots per VC (a window of Simulator.cred)
	free    uint64   // bit v set iff no input VC holds output VC v: the VCs VC allocation may take
	waitIn  uint64   // bit p set iff in[p] has a VC parked on this port (inPort.wait)
	nom     uint64   // input ports nominating this port this cycle; cleared by the grant pass
	rrIn    int      // round-robin pointer for the output stage of the allocator
	rrVC    int      // round-robin pointer for VC allocation
}

// vcState is one virtual channel of an input port: its flit FIFO plus the
// route of the packet currently flowing through it.
type vcState struct {
	fifo vcFIFO
	// frontReady caches fifo.front().readyAt (maintained on every push to an
	// empty FIFO and every pop), so the per-cycle switch-allocation
	// eligibility check never touches the FIFO storage.
	frontReady int64
	outPort    int32 // -1: head needs route computation
	outVC      int32 // -1: needs VC allocation
	lo, hi     uint8 // VC class [lo, hi) of the routed head, set at route computation
}

// inPort is one router input: the injection port (from the local NI) or the
// receiving end of a network channel.
type inPort struct {
	vcs []vcState
	// upCred indexes the upstream credit counter of VC 0 in Simulator.cred
	// (the feeding output port's, or the NI's for an injection port), and
	// upLatency is how many cycles a credit return takes to reach it.
	upCred    int
	upLatency int64
	rrVC      int // round-robin pointer for the input stage of the allocator
	// occ has bit v set iff vcs[v] holds at least one flit; the allocator
	// iterates set bits instead of scanning every VC. pend (a subset of occ)
	// has bit v set iff the front flit of vcs[v] still needs route
	// computation or VC allocation: mid-packet VCs drop out of the RC/VA
	// loop entirely, which only ever did work on pending fronts. wait (a
	// subset of occ, disjoint from pend) has bit v set iff vcs[v] is routed
	// but parked: its VC allocation failed because its output had no free
	// VC in its class. A failed retry changes nothing, and a VC frees only
	// at a tail grant, so a parked VC skips RC/VA until that output's next
	// tail grant moves it back to pend (grantSwitch).
	occ  uint64
	pend uint64
	wait uint64
}

// router is one network node's switch.
type router struct {
	id       int
	x, y     int
	in       []inPort
	out      []outPort
	occupied int // buffered flits across all input VCs; idle routers are skipped

	// portOcc has bit p set iff in[p] buffers at least one flit, letting the
	// allocator visit only non-empty ports. newShared rejects routers with
	// more input ports than the mask holds.
	portOcc uint64
	inMask  uint64 // low len(in) bits set; masks rotated nomination words

	// wakeAt lets step skip this router's allocator entirely until the given
	// cycle. routerCycle sets it only when it can prove every earlier cycle
	// is a no-op: no VC was nominated this cycle, and every occupied VC is
	// fully routed and VC-allocated, blocked solely on its front flit's
	// pipeline readyAt — so until the earliest readyAt, re-running the
	// allocator would change no state. Any flit delivery resets it to 0,
	// because a new arrival can need route computation before the cached
	// wake time.
	wakeAt int64

	// Routing tables (Fig. 3b): next-hop positions along the row/column and
	// the output port reaching each neighbor.
	rowNext [][]int // rowNext[from][toCol] = next column
	colNext [][]int
	rowOut  []int32 // rowOut[col] = out port index to row neighbor at col, -1 none
	colOut  []int32

	// routeTabs flattens the two-table walk into one dst -> outPort lookup,
	// indexed by dimension order (0 = XY, 1 = YX). Built at New time from
	// routeFlit whenever the footprint is small (always, at paper-scale
	// sizes); nil tables fall back to the two-table walk.
	routeTabs [2][]int32
}

// routeFlit implements the two-table lookup of Section 4.5.2: XY order, X
// table while the column differs, then the Y table, then ejection. With
// yx set (O1TURN's second class) the dimension order is reversed. dst is a
// core id; with concentration k, out ports [0, k) are the per-core ejection
// ports of the destination router.
func (r *router) routeFlit(dst, w, k int, yx bool) int32 {
	dr := dst / k
	dx, dy := dr%w, dr/w
	if yx {
		if dy != r.y {
			return r.colOut[r.colNext[r.y][dy]]
		}
		if dx != r.x {
			return r.rowOut[r.rowNext[r.x][dx]]
		}
		return int32(dst % k)
	}
	if dx != r.x {
		return r.rowOut[r.rowNext[r.x][dx]]
	}
	if dy != r.y {
		return r.colOut[r.colNext[r.y][dy]]
	}
	return int32(dst % k)
}
