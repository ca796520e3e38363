package sim

import (
	"explink/internal/stats"
)

// nodeIface is the per-node network interface: it generates packets per the
// traffic pattern, queues their flits in an unbounded source queue, feeds
// them into the router's injection port under credit flow control (one flit
// per cycle over a one-cycle local link), and sinks ejected flits.
type nodeIface struct {
	id  int
	rng *stats.RNG

	srcQ     flitRing
	curVC    int   // VC carrying the packet currently streaming, -1 if none
	credits  []int // free injection-buffer slots per VC (a window of Simulator.cred)
	injector *router
	inPort   int // index of the injection inPort on the router
}

func (ni *nodeIface) queued() int { return ni.srcQ.len() }

func (ni *nodeIface) pushFlits(pkt int32, n int) {
	for i := 0; i < n; i++ {
		f := flit{pkt: pkt, seq: uint32(i)}
		if i == n-1 {
			f.seq |= tailBit
		}
		ni.srcQ.push(f)
	}
}

// inject tries to send the head flit of the source queue into the router's
// injection buffer and reports whether it did. The NI performs its own VC
// selection: a head flit claims a VC that currently has buffer space;
// subsequent flits of the packet follow on the same VC (wormhole ordering).
func (ni *nodeIface) inject(now int64, s *Simulator) bool {
	if ni.srcQ.len() == 0 || ni.curVC >= 0 && ni.credits[ni.curVC] <= 0 {
		return false // nothing queued, or the packet streaming in is out of credits
	}
	f := *ni.srcQ.front()
	if f.isHead() && ni.curVC < 0 {
		// Claim a VC with at least one free slot from the packet's routing
		// class, round-robin from the packet id for determinism without bias.
		p := &s.pkts[f.pkt]
		lo, hi := s.vcClass(p.yx)
		span := hi - lo
		start := int(p.id) % span
		for k := 0; k < span; k++ {
			vc := lo + (start+k)%span
			if ni.credits[vc] > 0 {
				ni.curVC = vc
				break
			}
		}
	}
	if ni.curVC < 0 || ni.credits[ni.curVC] <= 0 {
		return false
	}
	vc := ni.curVC
	ni.credits[vc]--
	ni.srcQ.popFront()
	if f.isTail() {
		ni.curVC = -1
	}
	if f.isHead() {
		s.pkts[f.pkt].injected = now + 1
	}
	// One-cycle local link into the router's injection buffer.
	s.deliverFlit(ni.injector, ni.inPort, delivery{f: f, vc: int32(vc)}, now+1)
	return true
}
