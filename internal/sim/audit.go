package sim

// This file implements the opt-in per-cycle invariant auditor (Config.Audit)
// and the deadlock diagnostic dump. The auditor re-derives, from first
// principles, the conservation laws the credit-based wormhole engine must
// uphold every cycle, and fails the run fast on the first violation:
//
//   - flit conservation: every flit ever generated is in a source queue, in
//     flight inside the network, or ejected — nothing is created or lost;
//   - credit conservation: for every channel (router-to-router and the NI
//     injection link), free credits plus occupied downstream slots plus
//     in-flight flits and in-flight credit returns equal the buffer depth;
//   - active-set consistency: the occupancy bitmasks and work lists of the
//     event-driven engine (see DESIGN.md §5) agree with the actual buffer
//     state, and every flit on a channel has its arrival scheduled on the due
//     wheel, so no component with work pending can be skipped;
//   - arrival time: every channel holds exactly the flits granted onto it
//     whose due cycle (grant + 1 + link latency) is still ahead, so a flit
//     delivered early or late fails even when the wheel's counts still agree;
//   - free-VC masks: bit v of an output port's free mask is set exactly when
//     no input VC holds output VC v, and no two input VCs hold the same one;
//   - parking: every parked VC is routed, unallocated and not pending, its
//     output has no free VC in its class (one would mean a lost re-arm), and
//     each output's waitIn mask names exactly the input ports with a VC
//     parked on it, so its next tail grant re-arms them all;
//   - route monotonicity: every hop moves a head flit strictly closer to its
//     destination along the dimension order in force (X before Y under DOR,
//     reversed for O1TURN's YX class), which excludes U-turns by construction.
//
// With Audit unset none of this code runs: the auditor pointer is nil, one
// nil check per channel grant in grantSwitch is the only cost, and results
// are bit-identical to an unaudited run (the auditor only reads engine
// state).

import (
	"fmt"
	"math/bits"
	"strings"
)

type auditor struct {
	s *Simulator
	// err latches the first violation observed by the grant-time route check;
	// check reports it ahead of the conservation sweeps.
	err error
	// inFlight is scratch parallel to Simulator.cred: per credit counter, the
	// flits on the wire toward its buffer plus the credit returns still in
	// the credit wheel.
	inFlight []int
	// scheduled is scratch parallel to Simulator.channels: per channel, the
	// arrivals set for it across all due-wheel slots.
	scheduled []int
	// dues is parallel to Simulator.channels: per channel, the due cycles
	// of the flits granted onto it and not yet checked as arrived, in grant
	// order.
	dues [][]int64
	// outMask is per-router scratch parallel to router.out: the output VCs
	// the input VCs hold, or the waitIn masks the parked VCs imply.
	outMask []uint64
}

func newAuditor(s *Simulator) *auditor {
	a := &auditor{
		s:         s,
		inFlight:  make([]int, len(s.cred)),
		scheduled: make([]int, len(s.channels)),
		dues:      make([][]int64, len(s.channels)),
	}
	for _, r := range s.routers {
		a.outMask = make([]uint64, max(len(a.outMask), len(r.out)))
	}
	return a
}

func (a *auditor) fail(now int64, invariant, format string, args ...any) error {
	return &AuditError{Cycle: now, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// check runs every invariant sweep for the cycle that just completed. It is
// called from Run after step, before the cycle counter advances.
func (a *auditor) check(now int64) error {
	if a.err != nil {
		return a.err
	}
	if err := a.checkFlitConservation(now); err != nil {
		return err
	}
	if err := a.checkCreditConservation(now); err != nil {
		return err
	}
	if err := a.checkFreeMasks(now); err != nil {
		return err
	}
	if err := a.checkParking(now); err != nil {
		return err
	}
	if err := a.checkActiveSets(now); err != nil {
		return err
	}
	return a.checkArrivals(now)
}

// checkArrivals verifies that after cycle now each channel holds exactly
// the flits whose due cycle is later: one missing arrived early, one too
// many is late. Due cycles of a channel grow in grant order (one grant per
// cycle over a fixed latency), so the arrived ones are a prefix.
func (a *auditor) checkArrivals(now int64) error {
	for _, ch := range a.s.channels {
		d := a.dues[ch.idx]
		arrived := 0
		for arrived < len(d) && d[arrived] <= now {
			arrived++
		}
		pending := d[arrived:]
		switch n := ch.q.len(); {
		case n < len(pending):
			return a.fail(now, "arrival-time",
				"channel %d (router %d -> %d): a flit due at cycle %d arrived early (%d flits on the wire, %d due after this cycle)",
				ch.idx, ch.src.id, ch.dst.id, pending[0], n, len(pending))
		case n > len(pending):
			return a.fail(now, "arrival-time",
				"channel %d (router %d -> %d): a flit is late (%d flits on the wire, %d due after this cycle)",
				ch.idx, ch.src.id, ch.dst.id, n, len(pending))
		}
		a.dues[ch.idx] = pending
	}
	return nil
}

// checkFlitConservation verifies injected = queued-at-source + in-flight +
// ejected, using the engine's own counters against a recount of the source
// queues.
func (a *auditor) checkFlitConservation(now int64) error {
	s := a.s
	var queued int64
	for _, ni := range s.nis {
		queued += int64(ni.srcQ.len())
	}
	if got := queued + s.inFlightFlits + s.counts.FlitsEjected; got != s.counts.FlitsInjected {
		return a.fail(now, "flit-conservation",
			"injected=%d but source-queued=%d + in-flight=%d + ejected=%d = %d",
			s.counts.FlitsInjected, queued, s.inFlightFlits, s.counts.FlitsEjected, got)
	}
	return nil
}

// checkCreditConservation verifies, for every channel and every VC, that
// free upstream credits + occupied downstream buffer slots + flits still on
// the wire + credit returns still in the credit wheel add up to the
// downstream buffer depth. It covers both router-to-router channels and the
// NI injection link.
func (a *auditor) checkCreditConservation(now int64) error {
	s := a.s
	vcs := s.cfg.VCs
	inFlight := a.inFlight
	clear(inFlight)
	for _, slot := range s.credWheel {
		for _, i := range slot {
			inFlight[i]++ // a credit in flight holds a slot too
		}
	}
	for _, ch := range s.channels {
		up := ch.dst.in[ch.dstPort].upCred
		for i := 0; i < ch.q.len(); i++ {
			inFlight[up+int(ch.q.at(i).vc)]++
		}
	}
	for _, r := range s.routers {
		for oi := range r.out {
			op := &r.out[oi]
			if op.ch == nil {
				continue // the ejection sink never backpressures
			}
			dstIn := &op.ch.dst.in[op.ch.dstPort]
			for v := 0; v < vcs; v++ {
				depth := dstIn.vcs[v].fifo.cap()
				wire := inFlight[dstIn.upCred+v]
				if got := op.credits[v] + dstIn.vcs[v].fifo.len() + wire; got != depth {
					return a.fail(now, "credit-conservation",
						"router %d out[%d] -> router %d in[%d] vc%d: credits=%d + buffered=%d + in-flight=%d != depth %d",
						r.id, oi, op.ch.dst.id, op.ch.dstPort, v,
						op.credits[v], dstIn.vcs[v].fifo.len(), wire, depth)
				}
			}
		}
	}
	for _, ni := range s.nis {
		ip := &ni.injector.in[ni.inPort]
		for v := 0; v < vcs; v++ {
			depth := ip.vcs[v].fifo.cap()
			wire := inFlight[ip.upCred+v]
			if got := ni.credits[v] + ip.vcs[v].fifo.len() + wire; got != depth {
				return a.fail(now, "credit-conservation",
					"NI %d -> router %d in[%d] vc%d: credits=%d + buffered=%d + in-flight=%d != depth %d",
					ni.id, ni.injector.id, ni.inPort, v,
					ni.credits[v], ip.vcs[v].fifo.len(), wire, depth)
			}
		}
	}
	return nil
}

// checkFreeMasks verifies every output port's free-VC mask against the
// input VCs allocated to it: bit v is set iff no input VC holds output VC v,
// no output VC has two holders, and no bit above the configured VCs is set.
func (a *auditor) checkFreeMasks(now int64) error {
	s := a.s
	for _, r := range s.routers {
		held := a.outMask[:len(r.out)]
		clear(held)
		for pi := range r.in {
			for vi := range r.in[pi].vcs {
				vc := &r.in[pi].vcs[vi]
				if vc.outVC < 0 {
					continue
				}
				if held[vc.outPort]>>uint(vc.outVC)&1 == 1 {
					return a.fail(now, "free-vc-mask",
						"router %d out[%d] vc%d: held twice, once by in[%d] vc%d", r.id, vc.outPort, vc.outVC, pi, vi)
				}
				held[vc.outPort] |= 1 << uint(vc.outVC)
			}
		}
		for oi := range r.out {
			op := &r.out[oi]
			if op.free&^s.vcMask != 0 {
				return a.fail(now, "free-vc-mask",
					"router %d out[%d]: free mask %b has bits beyond %d VCs", r.id, oi, op.free, s.cfg.VCs)
			}
			if diff := op.free ^ held[oi] ^ s.vcMask; diff != 0 {
				v := bits.TrailingZeros64(diff)
				return a.fail(now, "free-vc-mask",
					"router %d out[%d] vc%d: free bit %v but held %v", r.id, oi, v, op.free>>uint(v)&1 == 1, held[oi]>>uint(v)&1 == 1)
			}
		}
	}
	return nil
}

// checkParking verifies the parked VCs (inPort.wait) against their routes,
// their outputs' free masks and the outputs' waitIn registrations.
func (a *auditor) checkParking(now int64) error {
	for _, r := range a.s.routers {
		want := a.outMask[:len(r.out)]
		clear(want)
		for pi := range r.in {
			ip := &r.in[pi]
			if ip.wait&^ip.occ != 0 || ip.wait&ip.pend != 0 {
				return a.fail(now, "parking",
					"router %d in[%d]: parked mask %b not within occupancy %b minus pending %b", r.id, pi, ip.wait, ip.occ, ip.pend)
			}
			for m := ip.wait; m != 0; m &= m - 1 {
				vi := bits.TrailingZeros64(m)
				vc := &ip.vcs[vi]
				if vc.outPort < 0 || vc.outVC >= 0 {
					return a.fail(now, "parking",
						"router %d in[%d] vc%d: parked with out port %d and out VC %d", r.id, pi, vi, vc.outPort, vc.outVC)
				}
				if free := r.out[vc.outPort].free >> vc.lo & (1<<(vc.hi-vc.lo) - 1); free != 0 {
					return a.fail(now, "parking",
						"router %d in[%d] vc%d: parked on out[%d], which has free VCs %b in its class [%d,%d)",
						r.id, pi, vi, vc.outPort, free<<vc.lo, vc.lo, vc.hi)
				}
				want[vc.outPort] |= 1 << uint(pi)
			}
		}
		for oi, w := range want {
			if got := r.out[oi].waitIn; got != w {
				return a.fail(now, "parking",
					"router %d out[%d]: waitIn %b, but input ports %b have VCs parked on it", r.id, oi, got, w)
			}
		}
	}
	return nil
}

// checkActiveSets verifies the event-driven engine's occupancy bitmasks,
// work lists and due wheel against the actual buffer state: a component
// holding work must be discoverable by a later step, and every occupancy bit
// must match its FIFO.
func (a *auditor) checkActiveSets(now int64) error {
	s := a.s
	for _, r := range s.routers {
		total := 0
		for pi := range r.in {
			ip := &r.in[pi]
			for vi := range ip.vcs {
				n := ip.vcs[vi].fifo.len()
				total += n
				if occ := ip.occ>>uint(vi)&1 == 1; occ != (n > 0) {
					return a.fail(now, "active-set",
						"router %d in[%d] vc%d: occ bit %v but %d buffered flits", r.id, pi, vi, occ, n)
				}
			}
			if ip.pend&^ip.occ != 0 {
				return a.fail(now, "active-set",
					"router %d in[%d]: pending mask %b not a subset of occupancy %b", r.id, pi, ip.pend, ip.occ)
			}
			if set := r.portOcc>>uint(pi)&1 == 1; set != (ip.occ != 0) {
				return a.fail(now, "active-set",
					"router %d: portOcc bit %d is %v but port occupancy is %b", r.id, pi, set, ip.occ)
			}
		}
		if total != r.occupied {
			return a.fail(now, "active-set",
				"router %d: occupied=%d but buffers hold %d flits", r.id, r.occupied, total)
		}
		if r.occupied > 0 && s.rtrAct[uint(r.id)>>6]>>(uint(r.id)&63)&1 == 0 {
			return a.fail(now, "active-set",
				"router %d holds %d flits but is not on the router active set", r.id, r.occupied)
		}
	}
	// Each flit on a wire is delivered by exactly one due bit: a channel
	// whose flits outnumber its bits would strand one, and a surplus bit
	// would pop a flit early.
	scheduled := a.scheduled
	clear(scheduled)
	for i, w := range s.dueWheel {
		base := (i % s.chWords) << 6
		for ; w != 0; w &= w - 1 {
			scheduled[base+bits.TrailingZeros64(w)]++
		}
	}
	for _, ch := range s.channels {
		if n := ch.q.len(); n != scheduled[ch.idx] {
			return a.fail(now, "active-set",
				"channel %d (router %d -> %d) holds %d flits but the due wheel schedules %d arrivals",
				ch.idx, ch.src.id, ch.dst.id, n, scheduled[ch.idx])
		}
	}
	for _, ni := range s.nis {
		if ni.srcQ.len() > 0 && s.niAct[uint(ni.id)>>6]>>(uint(ni.id)&63)&1 == 0 {
			return a.fail(now, "active-set",
				"NI %d queues %d flits but is not on the injection active set", ni.id, ni.srcQ.len())
		}
	}
	return nil
}

// noteGrant is called from grantSwitch (audit mode only) when a flit
// crosses to a network channel, due at cycle due: it records the due cycle
// for checkArrivals and, for a head flit, checks the hop.
func (a *auditor) noteGrant(now int64, r *router, op *outPort, f flit, due int64) {
	a.dues[op.ch.idx] = append(a.dues[op.ch.idx], due)
	if f.isHead() && a.err == nil {
		a.checkHop(now, r, op, &a.s.pkts[f.pkt])
	}
}

// checkHop is the grant-time route-monotonicity check. Every hop must move
// strictly toward the destination along the packet's dimension order — X
// fully resolved before any Y movement under DOR, the reverse for O1TURN's
// YX class — which also excludes U-turns.
func (a *auditor) checkHop(now int64, r *router, op *outPort, p *packet) {
	s := a.s
	next := op.ch.dst
	dr := int(p.dst) / s.k
	dx, dy := dr%s.w, dr/s.w
	switch {
	case next.y == r.y: // X move
		if p.yx && r.y != dy {
			a.err = a.fail(now, "route-monotonicity",
				"pkt %d (%d->%d, YX) moved in X at router %d before finishing Y (y=%d, want %d)",
				p.id, p.src, p.dst, r.id, r.y, dy)
			return
		}
		if absInt(dx-next.x) >= absInt(dx-r.x) {
			a.err = a.fail(now, "route-monotonicity",
				"pkt %d (%d->%d) hop router %d -> %d moves away from column %d",
				p.id, p.src, p.dst, r.id, next.id, dx)
		}
	case next.x == r.x: // Y move
		if !p.yx && r.x != dx {
			a.err = a.fail(now, "route-monotonicity",
				"pkt %d (%d->%d, XY) moved in Y at router %d before finishing X (x=%d, want %d)",
				p.id, p.src, p.dst, r.id, r.x, dx)
			return
		}
		if absInt(dy-next.y) >= absInt(dy-r.y) {
			a.err = a.fail(now, "route-monotonicity",
				"pkt %d (%d->%d) hop router %d -> %d moves away from row %d",
				p.id, p.src, p.dst, r.id, next.id, dy)
		}
	default:
		a.err = a.fail(now, "route-monotonicity",
			"pkt %d (%d->%d) hop router %d -> %d changes both dimensions",
			p.id, p.src, p.dst, r.id, next.id)
	}
}

// deadlockReportMax caps the per-VC lines in a deadlock dump; the full count
// is always reported in the header.
const deadlockReportMax = 16

// deadlockReport names every input VC holding buffered traffic at the moment
// a deadlock was suspected: the packet at its front, the output it is routed
// to, and the downstream credit it is waiting on. The dump is the diagnostic
// payload of DeadlockError.
func (s *Simulator) deadlockReport() string {
	var b strings.Builder
	blocked := 0
	for _, r := range s.routers {
		for pi := range r.in {
			ip := &r.in[pi]
			for vi := range ip.vcs {
				vc := &ip.vcs[vi]
				if vc.fifo.len() == 0 {
					continue
				}
				blocked++
				if blocked > deadlockReportMax {
					continue
				}
				fe := vc.fifo.front()
				p := &s.pkts[fe.f.pkt]
				fmt.Fprintf(&b, "  router %d@(%d,%d) in[%d] vc%d: pkt %d (%d->%d) flit %d/%d",
					r.id, r.x, r.y, pi, vi, p.id, p.src, p.dst, fe.f.seq&^tailBit+1, p.flits)
				switch {
				case vc.outPort < 0:
					b.WriteString(" awaiting route computation\n")
				case vc.outVC < 0:
					fmt.Fprintf(&b, " awaiting a VC on out[%d]\n", vc.outPort)
				default:
					op := &r.out[vc.outPort]
					fmt.Fprintf(&b, " -> out[%d] vc%d credits=%d\n",
						vc.outPort, vc.outVC, op.credits[vc.outVC])
				}
			}
		}
	}
	var queued int64
	for _, ni := range s.nis {
		queued += int64(ni.srcQ.len())
	}
	header := fmt.Sprintf("%d blocked input VCs, %d flits in flight, %d flits queued at NIs",
		blocked, s.inFlightFlits, queued)
	if blocked > deadlockReportMax {
		fmt.Fprintf(&b, "  ... and %d more blocked VCs\n", blocked-deadlockReportMax)
	}
	return header + "\n" + strings.TrimRight(b.String(), "\n")
}
