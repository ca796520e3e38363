package sim

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"explink/internal/route"
	"explink/internal/runctl"
	"explink/internal/stats"
)

// b2i maps a dimension-order flag to a routeTabs index.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Simulator is one instantiated simulation. Create with New, run once with
// Run; it is not reusable or safe for concurrent use.
type Simulator struct {
	cfg   Config
	w, h  int
	k     int // cores per router (concentration)
	nodes int // total cores

	routers  []*router
	nis      []*nodeIface
	channels []*channel

	rowPaths []*route.RowPaths // shared with netShared; read for ideal latencies
	colPaths []*route.RowPaths
	mixCum   []float64
	mixFlits []int

	now           int64
	counts        Counts
	col           *collector
	rng           *stats.RNG
	nextPktID     int64
	inFlightFlits int64
	lastProgress  int64
	taggedCreated int64
	taggedDone    int64
	warmEnd       int64
	measEnd       int64
	hardEnd       int64
	deadlock      bool
	truncated     TruncateReason

	// Terminal run state, latched by advance: once finished is set the run
	// loop never re-enters, drained records a clean drain and runErr the
	// failure (deadlock, audit, cancellation) if any. Splitting the loop
	// into budgeted advance calls is what lets sim.Batch interleave many
	// replicas on one goroutine without changing any replica's cycle
	// sequence.
	finished bool
	drained  bool
	runErr   error

	// audit is the opt-in per-cycle invariant auditor (Config.Audit); nil in
	// normal runs, where its only cost is one nil check per switch grant.
	audit *auditor

	// met is the process metric set captured at New (nil when metrics are
	// disabled). Run publishes deltas on its housekeeping cadence; pubCycle,
	// pubCounts and watchdogArmed track what was last published.
	met           *metricSet
	pubCycle      int64
	pubCounts     Counts
	watchdogArmed bool

	inCand []int  // scratch: per-inPort chosen VC during switch allocation
	outReq []int  // scratch: output ports with at least one nomination
	vcMask uint64 // low cfg.VCs bits set; masks rotated occupancy words

	// Active-set bitmaps. Each tracks exactly the components that can make
	// progress — routers with occupied buffers, NIs with queued flits — so
	// step touches only those instead of scanning every component each
	// cycle. Bit i of word w covers component index w*64+i, and scanning
	// words in order visits components in ascending index order, which is
	// observable: injection order decides pipeline-bypass hits, and router
	// order decides ejection order and so the float accumulation order of
	// the collectors. Activation is an idempotent bit set; a component
	// leaves when a step phase finds it drained.
	rtrAct []uint64
	niAct  []uint64

	// Timing wheels. Every future event a grant causes comes due a fixed
	// number of cycles later — a credit return after the input link's
	// latency, a flit arrival after one ST cycle plus the channel's latency
	// — so both wheels have wheelMask+1 slots, more than the longest link
	// latency, and slot t&wheelMask holds what comes due at cycle t.
	//
	// cred holds every credit counter: each output port's per-VC window
	// (op.credits), then each NI's (ni.credits). credWheel[slot] lists the
	// cred indices that gain one credit in that cycle; their order does not
	// matter. dueWheel[slot*chWords:][:chWords] is a bitmap over channel
	// indices of the channels whose oldest flit arrives in that cycle.
	cred      []int
	credWheel [][]int32
	dueWheel  []uint64
	chWords   int
	wheelMask int64

	// pkts is the packet slab flits index into. A slot joins freePkts when
	// its packet's tail flit ejects (after all statistics are recorded), and
	// newPacket reuses free slots before growing the slab. In steady state
	// the in-flight population is stable, so the slab stops growing.
	pkts     []packet
	freePkts []int32

	traceIdx int          // replay cursor into cfg.Trace.Entries
	recorded []TraceEntry // captured workload when cfg.RecordTrace

	// onPacketDone, when set, observes every completed measured packet
	// (testing/diagnostics hook).
	onPacketDone func(src, dst, flits, hops int, netLat, ideal float64)
}

// New builds a simulator for the config. The config is validated and
// defaulted; New returns an error rather than panicking on bad input.
// Internally it is the shared-description path used by sim.Batch with a
// single replica: newShared builds the seed-independent network description,
// instantiate carves the replica's mutable state over it.
func New(cfg Config) (*Simulator, error) {
	sh, err := newShared(cfg)
	if err != nil {
		return nil, err
	}
	return sh.instantiate(sh.cfg.Seed), nil
}

// ctxCheckMask throttles the context poll in the run loop: the context is
// consulted when the low bits of the cycle counter are zero, i.e. every 512
// cycles (well under a millisecond of wall time at engine speed), so
// deadlines land promptly without a per-cycle branch cost.
const ctxCheckMask = 512 - 1

// Run executes the whole simulation and returns its measurements. The
// context bounds the run: on cancellation or deadline expiry Run stops
// within a few hundred cycles and returns the partial Result measured so far
// (Truncated = TruncatedCancelled) alongside an error matching ErrCancelled.
//
// A run that makes no progress for Config.ProgressTimeout cycles while
// traffic is in flight returns its partial Result with a *DeadlockError
// (matching ErrDeadlock) whose report names every blocked router, port and
// VC and the credit each is waiting on. With Config.Audit set, the first
// violated engine invariant fails the run with an *AuditError (matching
// ErrAudit). In both cases Result.Truncated records why the run ended early;
// a run that merely hits the Drain-cycle cutoff still returns a nil error
// with Truncated = TruncatedDrainLimit.
func (s *Simulator) Run(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if s.met != nil {
		s.met.runsStarted.Inc()
	}
	for !s.advance(ctx, 1<<62) {
	}
	return s.finish(start), s.runErr
}

// advance executes up to budget cycles of the run loop and reports whether
// the run has ended (drained, drain-limit truncation, deadlock, audit
// failure or cancellation). The terminal outcome is latched in s.drained,
// s.truncated and s.runErr; once finished, further calls return true without
// touching the engine. Budget boundaries are invisible to the simulation:
// advancing in chunks executes exactly the same cycle sequence as one
// unbounded call, which is the single-run-equivalence contract sim.Batch
// relies on to interleave replicas.
func (s *Simulator) advance(ctx context.Context, budget int64) bool {
	if s.finished {
		return true
	}
	limit := s.now + budget
	for {
		if s.now >= s.measEnd && s.taggedDone == s.taggedCreated && s.inFlightFlits == 0 {
			s.drained = true
			s.finished = true
			return true
		}
		if s.now >= s.hardEnd {
			s.truncated = TruncatedDrainLimit
			s.finished = true
			return true
		}
		if stall := s.now - s.lastProgress; s.inFlightFlits > 0 && stall > int64(s.cfg.ProgressTimeout) {
			s.deadlock = true
			s.truncated = TruncatedDeadlock
			s.runErr = &DeadlockError{Cycle: s.now, Stall: stall, Report: s.deadlockReport()}
			s.finished = true
			return true
		}
		if s.now&ctxCheckMask == 0 {
			if ctx.Err() != nil {
				s.truncated = TruncatedCancelled
				s.runErr = fmt.Errorf("sim: run cancelled at cycle %d: %w", s.now, runctl.Cancelled(ctx))
				s.finished = true
				return true
			}
			if s.met != nil {
				s.publishObs()
			}
		}
		if s.now >= limit {
			return false
		}
		s.step()
		if s.audit != nil {
			if err := s.audit.check(s.now); err != nil {
				s.truncated = TruncatedAudit
				s.runErr = err
				s.finished = true
				return true
			}
		}
		s.now++
	}
}

// finish stamps wall-clock timing onto the terminal Result and publishes the
// final metric deltas. start is when this run — or the batch interleaving it
// — began, so under sim.Batch a replica's WallTime is the batch elapsed time
// at its finish, not its exclusive CPU time.
func (s *Simulator) finish(start time.Time) Result {
	res := s.result(s.drained)
	res.WallTime = time.Since(start)
	res.CyclesPerSec = cyclesPerSec(res.Cycles, res.WallTime)
	if s.met != nil {
		s.publishObs()
		s.met.runsFinished.Inc()
		s.met.runTime.Observe(res.WallTime)
		s.met.cyclesPerSec.Set(res.CyclesPerSec)
		if s.truncated == TruncatedDeadlock {
			s.met.watchdogFired.Inc()
		}
	}
	return res
}

func (s *Simulator) result(drained bool) Result {
	patName := "trace"
	if s.cfg.Pattern != nil {
		patName = s.cfg.Pattern.Name()
	} else if s.cfg.Trace != nil && s.cfg.Trace.Name != "" {
		patName = fmt.Sprintf("trace(%s)", s.cfg.Trace.Name)
	}
	r := Result{
		Topology:          s.cfg.Topo.Name,
		Pattern:           patName,
		InjRate:           s.cfg.InjectionRate,
		Cycles:            s.now,
		MeasuredPackets:   s.col.latency.Count(),
		Drained:           drained,
		DeadlockSuspected: s.deadlock,
		Truncated:         s.truncated,
		Counts:            s.counts,
	}
	r.AvgPacketLatency = s.col.latency.Mean()
	r.AvgNetLatency = s.col.netLatency.Mean()
	r.P95Latency = s.col.latency.Percentile(95)
	r.P99Latency = s.col.latency.Percentile(99)
	r.MaxLatency = s.col.latency.Max()
	r.AvgHops = s.col.hops.Mean()
	r.AvgContentionPerHop = s.col.contention.Mean()
	denom := float64(s.nodes) * float64(s.cfg.Measure)
	r.ThroughputPackets = float64(s.col.ejectedInWindow) / denom
	r.ThroughputFlits = float64(s.col.flitsInWindow) / denom
	return r
}

// step advances one cycle: (1) deliver flits and credits due now, (2) NIs
// generate and inject, (3) routers route, allocate VCs and arbitrate the
// switch. All effects of phase 3 land at strictly later cycles, so the
// sequential router order cannot leak same-cycle causality.
//
// Phase 1 reads this cycle's slot of the two timing wheels; phases 2 and 3
// walk active-set work lists instead of every component. Both visit exactly
// the components the replaced full scans would have found work at, in the
// same order, so results are bit-identical (see DESIGN.md §5).
func (s *Simulator) step() {
	now := s.now
	slot := now & s.wheelMask

	// Flit deliveries due now, in channel-index order: delivery order
	// decides pipeline-bypass hits, and through them every later cycle. A
	// channel sends at most one flit per cycle over a fixed latency, so each
	// set bit is exactly its oldest flit. Words are cleared as they are
	// read; grants later this cycle may set bits of this slot again (due
	// wheelMask+1 cycles from now), and no delivery sets any.
	due := s.dueWheel[int(slot)*s.chWords:][:s.chWords]
	for wi, w := range due {
		if w == 0 {
			continue
		}
		due[wi] = 0
		for ; w != 0; w &= w - 1 {
			ch := s.channels[wi<<6+bits.TrailingZeros64(w)]
			s.deliverFlit(ch.dst, ch.dstPort, ch.q.popFront(), now)
			ch.q.shrinkIfDrained()
		}
	}

	// Credit returns due now; each only increments its own counter.
	for _, i := range s.credWheel[slot] {
		s.cred[i]++
	}
	s.credWheel[slot] = s.credWheel[slot][:0]

	// Traffic generation. Every NI draws its injection coin every cycle —
	// the per-cycle, per-NI RNG order is part of the bit-identity contract,
	// so this scan must never be active-set filtered.
	if injecting := now < s.measEnd; injecting {
		if s.cfg.Trace != nil {
			s.replayTrace()
		} else if s.cfg.InjectionRate > 0 {
			for _, ni := range s.nis {
				if ni.rng.Bool(s.cfg.InjectionRate) {
					s.generate(ni)
				}
			}
		}
	}

	// Injection from NIs with queued flits, in NI-id order (packet-id
	// assignment and per-router bypass checks observe it). Generation above
	// has already set the bits of any NI that gained flits this cycle.
	for wi, w := range s.niAct {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			w &= w - 1
			ni := s.nis[wi<<6+tz]
			if ni.inject(now, s) {
				s.inFlightFlits++
				s.lastProgress = now
			}
			if ni.queued() == 0 {
				s.niAct[wi] &^= 1 << uint(tz)
				ni.srcQ.shrinkIfDrained()
			}
		}
	}

	// Router pipelines, in router-id order. Every set bit marks a router
	// with occupied > 0 (the guard of the full scan this replaces), and
	// routers never activate each other within this phase — grants land at
	// strictly later cycles — so clearing drained bits while scanning a
	// snapshot of each word is safe. A router sleeping until wakeAt keeps
	// its bit (the auditor's active-set invariant is occupied ⇒ marked) but
	// skips the allocator: routerCycle proved those cycles are no-ops.
	for wi, w := range s.rtrAct {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			w &= w - 1
			r := s.routers[wi<<6+tz]
			if r.wakeAt > now {
				continue
			}
			s.routerCycle(r)
			if r.occupied == 0 {
				s.rtrAct[wi] &^= 1 << uint(tz)
			}
		}
	}
}

// newPacket creates a packet of the given size from the NI to dst in a slab
// slot (a recycled one if any), queues its flits at the NI and puts the NI
// on the injection work list.
func (s *Simulator) newPacket(ni *nodeIface, dst, flits int) {
	var idx int32
	if n := len(s.freePkts) - 1; n >= 0 {
		idx = s.freePkts[n]
		s.freePkts = s.freePkts[:n]
	} else {
		idx = int32(len(s.pkts))
		s.pkts = append(s.pkts, packet{})
	}
	s.nextPktID++
	p := &s.pkts[idx]
	*p = packet{
		id: s.nextPktID, src: int32(ni.id), dst: int32(dst), flits: int32(flits), created: s.now, injected: -1,
		measured: s.now >= s.warmEnd && s.now < s.measEnd,
	}
	if s.cfg.Routing == RoutingO1Turn {
		p.yx = ni.rng.Bool(0.5)
	}
	if p.measured {
		s.taggedCreated++
	}
	s.counts.PacketsInjected++
	s.counts.FlitsInjected += int64(flits)
	ni.pushFlits(idx, flits)
	s.niAct[uint(ni.id)>>6] |= 1 << (uint(ni.id) & 63)
}

// generate creates one packet at the NI per the traffic pattern and mix.
func (s *Simulator) generate(ni *nodeIface) {
	dst := s.cfg.Pattern.Dest(ni.id, ni.rng)
	if dst == ni.id || dst < 0 || dst >= s.nodes {
		return // self-addressed traffic is dropped (see package traffic)
	}
	class := len(s.mixCum) - 1
	u := ni.rng.Float64()
	for i, c := range s.mixCum {
		if u < c {
			class = i
			break
		}
	}
	if s.cfg.RecordTrace {
		s.recorded = append(s.recorded, TraceEntry{
			Cycle: s.now, Src: ni.id, Dst: dst, Bits: s.cfg.Mix[class].Bits,
		})
	}
	s.newPacket(ni, dst, s.mixFlits[class])
}

// RecordedTrace returns the workload captured during a run with RecordTrace
// set (nil otherwise). The trace replays deterministically through a fresh
// simulator with Config.Trace.
func (s *Simulator) RecordedTrace() *Trace {
	if !s.cfg.RecordTrace {
		return nil
	}
	return &Trace{W: s.cfg.Topo.W, H: s.cfg.Topo.H, K: s.k, Entries: s.recorded}
}

// vcClass returns the half-open VC index range a packet may use: the full
// range under dimension-order routing, or the class partition under O1TURN.
func (s *Simulator) vcClass(yx bool) (lo, hi int) {
	if s.cfg.Routing != RoutingO1Turn {
		return 0, s.cfg.VCs
	}
	half := s.cfg.VCs / 2
	if yx {
		return half, s.cfg.VCs
	}
	return 0, half
}

// deliverFlit writes a flit into a router input buffer at the given arrival
// cycle.
func (s *Simulator) deliverFlit(r *router, port int, d delivery, arrival int64) {
	ip := &r.in[port]
	readyAt := arrival + int64(s.cfg.RouterStages-1)
	if s.cfg.PipelineBypass && r.occupied == 0 {
		readyAt = arrival // idle router: skip straight to switch traversal
	}
	vc := &ip.vcs[d.vc]
	if vc.fifo.len() == 0 {
		vc.frontReady = readyAt
		if vc.outVC < 0 {
			ip.pend |= 1 << uint(d.vc) // a new head needing route and VC
		}
	}
	vc.fifo.push(bufEntry{f: d.f, readyAt: readyAt})
	r.occupied++
	ip.occ |= 1 << uint(d.vc)
	r.portOcc |= 1 << uint(port)
	r.wakeAt = 0 // a new arrival invalidates any cached no-op window
	s.rtrAct[uint(r.id)>>6] |= 1 << (uint(r.id) & 63)
	s.counts.BufferWrites++
}

// routerCycle performs route computation, VC allocation and switch
// allocation for one router in one cycle.
//
// The pass over input ports fuses RC/VA with the input stage of switch
// allocation. Fusing is order-equivalent to a two-pass structure because a
// port's nomination eligibility reads only its own VCs' route state (written
// by its own RC/VA, which still precedes it) plus output credits, which
// RC/VA never touches. All loops iterate occupancy bitmasks instead of every
// port and VC; the bit orders reproduce the full scans exactly — ascending
// for ports and RC/VA, rotated-by-round-robin-pointer for the nomination and
// grant stages, where rotating a mask right by rr makes trailing-zero order
// equal to (rr+k)%n order.
func (s *Simulator) routerCycle(r *router) {
	now := s.now

	// Solo fast path: exactly one occupied VC in the whole router — the
	// overwhelmingly common case below saturation, where a single packet
	// streams through. The full allocator's rotations and two-stage
	// arbitration collapse to a direct grant: with one candidate, every
	// round-robin scan selects it, and the only persistent updates the
	// general path would make are exactly the ones below (RC/VA state, the
	// VCAllocs count, op.rrIn before the grant, and grantSwitch's effects).
	if pm := r.portOcc; pm&(pm-1) == 0 {
		pi := bits.TrailingZeros64(pm)
		ip := &r.in[pi]
		if occ := ip.occ; occ&(occ-1) == 0 {
			vi := bits.TrailingZeros64(occ)
			vc := &ip.vcs[vi]
			if ip.pend != 0 { // pend ⊆ occ, so pend == occ here
				s.routeAndAllocVC(r, ip, pi, vi, vc)
			}
			if vc.outVC >= 0 {
				if vc.frontReady > now {
					// Routed, allocated, waiting only on the pipeline:
					// every cycle before frontReady is provably a no-op.
					r.wakeAt = vc.frontReady
					return
				}
				op := &r.out[vc.outPort]
				if op.credits[vc.outVC] > 0 {
					op.rrIn = pi + 1
					if op.rrIn == len(r.in) {
						op.rrIn = 0
					}
					s.grantSwitch(r, pi, vi)
				}
			}
			return
		}
	}

	s.outReq = s.outReq[:0]
	sleepOK := true // no occupied VC blocked on anything but time
	minReady := int64(1<<63 - 1)
	for pm := r.portOcc; pm != 0; pm &= pm - 1 {
		pi := bits.TrailingZeros64(pm)
		ip := &r.in[pi]

		// Route computation + VC allocation for every pending buffer front.
		// Both are modeled as instantaneous here; their pipeline cost is the
		// readyAt eligibility delay applied at buffer write. Every pending VC
		// leaves the pending mask: allocated, or parked (inPort.wait) when its
		// output has no free VC for it.
		for m := ip.pend; m != 0; m &= m - 1 {
			vi := bits.TrailingZeros64(m)
			s.routeAndAllocVC(r, ip, pi, vi, &ip.vcs[vi])
		}

		// Switch allocation, stage 1: the port nominates its first eligible
		// allocated VC in round-robin order from rrVC. The skip reasons
		// double as the wake-skip classification: a VC blocked only on its
		// pipeline readyAt contributes a wake time; any other blocker (a VC
		// still waiting for VC allocation, exhausted credits) can clear
		// without the clock advancing, so it forbids sleeping.
		if ip.wait != 0 {
			sleepOK = false
		}
		nv := len(ip.vcs)
		rr, cand := 0, ip.occ&^ip.wait
		if cand&(cand-1) != 0 {
			// Rotating right by rrVC makes trailing-zero order the
			// round-robin order; a single candidate needs no rotation.
			rr = ip.rrVC
			cand = (cand>>uint(rr) | cand<<uint(nv-rr)) & s.vcMask
		}
		for ; cand != 0; cand &= cand - 1 {
			vi := rr + bits.TrailingZeros64(cand)
			if vi >= nv {
				vi -= nv
			}
			vc := &ip.vcs[vi]
			if vc.frontReady > now {
				if vc.frontReady < minReady {
					minReady = vc.frontReady
				}
				continue
			}
			op := &r.out[vc.outPort]
			if op.credits[vc.outVC] <= 0 {
				sleepOK = false
				continue
			}
			s.inCand[pi] = vi
			if op.nom == 0 {
				s.outReq = append(s.outReq, int(vc.outPort))
			}
			op.nom |= 1 << uint(pi)
			break
		}
	}

	// With no nominations anywhere and every occupied VC waiting only on its
	// pipeline, the cycles up to the earliest readyAt are proven no-ops.
	if len(s.outReq) == 0 {
		if sleepOK && minReady != 1<<63-1 {
			r.wakeAt = minReady
		}
		return
	}

	// Stage 2: each requested output port grants one of the input ports
	// nominating it, the first in round-robin order from rrIn, in the order
	// the outputs were first requested. A port nominates one VC and so one
	// output, so no port can win twice.
	ni := uint(len(r.in))
	for _, oi := range s.outReq {
		op := &r.out[oi]
		nom, rr := op.nom, uint(op.rrIn)
		op.nom = 0
		pi := rr + uint(bits.TrailingZeros64((nom>>rr|nom<<(ni-rr))&r.inMask))
		if pi >= ni {
			pi -= ni
		}
		op.rrIn = int(pi) + 1
		if op.rrIn == int(ni) {
			op.rrIn = 0
		}
		s.grantSwitch(r, int(pi), s.inCand[pi])
	}
}

// routeAndAllocVC performs route computation (for a new head) and VC
// allocation for the front flit of one pending VC, clearing its pend bit. A
// failed VC allocation parks the VC on its output port instead of leaving it
// pending: until a tail grant frees a VC there, every retry would fail and
// change nothing.
func (s *Simulator) routeAndAllocVC(r *router, ip *inPort, pi, vi int, vc *vcState) {
	if vc.outPort < 0 {
		p := &s.pkts[vc.fifo.front().f.pkt]
		if tab := r.routeTabs[b2i(p.yx)]; tab != nil {
			vc.outPort = tab[p.dst]
		} else {
			vc.outPort = r.routeFlit(int(p.dst), s.w, s.k, p.yx)
		}
		lo, hi := s.vcClass(p.yx)
		vc.lo, vc.hi = uint8(lo), uint8(hi)
	}
	bit := uint64(1) << uint(vi)
	ip.pend &^= bit
	// The first free VC of the packet's class in (rrVC+k) mod span order:
	// rotating the class's free bits right by rrVC makes trailing-zero order
	// equal to that order.
	op := &r.out[vc.outPort]
	lo, span, rr := uint(vc.lo), uint(vc.hi-vc.lo), uint(op.rrVC)
	spanMask := uint64(1)<<span - 1
	m := op.free >> lo & spanMask
	if m == 0 { // park until a tail grant on this output re-arms the VC
		ip.wait |= bit
		op.waitIn |= 1 << uint(pi)
		return
	}
	k := uint(bits.TrailingZeros64((m>>rr | m<<(span-rr)) & spanMask))
	cand := rr + k
	if cand >= span {
		cand -= span
	}
	v := lo + cand
	op.free &^= 1 << v
	vc.outVC = int32(v)
	op.rrVC = int(cand) + 1
	if op.rrVC == int(span) {
		op.rrVC = 0
	}
	s.counts.VCAllocs++
}

// grantSwitch moves the winning flit across the crossbar into its output
// channel (or to the ejection sink), returns a credit upstream, and releases
// the output VC on tail flits.
func (s *Simulator) grantSwitch(r *router, pi, vi int) {
	now := s.now
	ip := &r.in[pi]
	vc := &ip.vcs[vi]
	fe := vc.fifo.pop()
	f := fe.f
	r.occupied--
	if vc.fifo.len() == 0 {
		ip.occ &^= 1 << uint(vi)
		if ip.occ == 0 {
			r.portOcc &^= 1 << uint(pi)
		}
	} else {
		vc.frontReady = vc.fifo.front().readyAt
		if f.isTail() {
			ip.pend |= 1 << uint(vi) // the next packet's head is now at front
		}
	}
	ip.rrVC = vi + 1
	if ip.rrVC == len(ip.vcs) {
		ip.rrVC = 0
	}
	s.counts.BufferReads++
	s.counts.SwitchTraversals++
	s.lastProgress = now

	// Credit back to whoever feeds this input buffer, due once it has
	// crossed the input link.
	cs := (now + ip.upLatency) & s.wheelMask
	s.credWheel[cs] = append(s.credWheel[cs], int32(ip.upCred+vi))
	s.counts.CreditsSent++

	oi := vc.outPort
	op := &r.out[oi]
	if op.ch == nil {
		s.eject(f, now+2) // ST plus the one-cycle local link to the NI
	} else {
		if f.isHead() {
			s.pkts[f.pkt].hops++
		}
		ch := op.ch
		op.credits[vc.outVC]--
		ch.q.push(delivery{f: f, vc: vc.outVC})
		dueAt := now + 1 + ch.latency
		due := int(dueAt&s.wheelMask)*s.chWords + ch.idx>>6
		s.dueWheel[due] |= 1 << (uint(ch.idx) & 63)
		ch.flits++
		s.counts.LinkFlitUnits += ch.lenUnits
		if s.audit != nil {
			s.audit.noteGrant(now, r, op, f, dueAt)
		}
	}

	if f.isTail() {
		op.free |= 1 << uint(vc.outVC)
		vc.outPort, vc.outVC = -1, -1
		// The freed VC un-parks every VC waiting on this output: each retries
		// VC allocation next cycle, in the RC/VA pass's ascending port and VC
		// order, exactly as the retries it skipped would have.
		for pm := op.waitIn; pm != 0; pm &= pm - 1 {
			in := &r.in[bits.TrailingZeros64(pm)]
			for m := in.wait; m != 0; m &= m - 1 {
				if v := bits.TrailingZeros64(m); in.vcs[v].outPort == oi {
					in.wait &^= 1 << uint(v)
					in.pend |= 1 << uint(v)
				}
			}
		}
		op.waitIn = 0
	}
}

// eject delivers a flit to the destination NI at cycle t and completes the
// packet on its tail.
func (s *Simulator) eject(f flit, t int64) {
	s.counts.FlitsEjected++
	s.inFlightFlits--
	p := &s.pkts[f.pkt]
	p.ejected++
	if t >= s.warmEnd && t < s.measEnd {
		s.col.flitsInWindow++
	}
	if p.ejected < p.flits {
		return
	}
	s.counts.PacketsEjected++
	if t >= s.warmEnd && t < s.measEnd {
		s.col.ejectedInWindow++
	}
	if p.measured {
		s.taggedDone++
		lat := int(t - p.created)
		s.col.latency.Add(lat)
		if p.injected >= 0 {
			netLat := float64(t - p.injected)
			s.col.netLatency.Add(netLat)
			ideal := s.idealNetLatency(p)
			hops := p.hops
			if hops < 1 {
				hops = 1
			}
			extra := netLat - ideal
			if extra < 0 {
				extra = 0
			}
			s.col.contention.Add(extra / float64(hops))
			if s.onPacketDone != nil {
				s.onPacketDone(int(p.src), int(p.dst), int(p.flits), int(p.hops), netLat, ideal)
			}
		}
		s.col.hops.Add(float64(p.hops))
	}
	// The tail has ejected and every statistic is recorded: the slot is free
	// for the next packet.
	s.freePkts = append(s.freePkts, f.pkt)
}

// idealNetLatency is the zero-load network latency of a packet: head latency
// along its path, plus ejection pipeline and local link, plus pipelined
// serialization of the remaining flits. The constant matches the timing
// convention in the package comment; TestZeroLoadMatchesModel pins it.
func (s *Simulator) idealNetLatency(p *packet) float64 {
	sr, dr := int(p.src)/s.k, int(p.dst)/s.k
	sx, sy := sr%s.w, sr/s.w
	dx, dy := dr%s.w, dr/s.w
	// XY turns at (dx, sy); YX, O1TURN's second class, at (sx, dy).
	head := s.rowPaths[sy].Dist[sx][dx] + s.colPaths[dx].Dist[sy][dy]
	if p.yx {
		head = s.colPaths[sx].Dist[sy][dy] + s.rowPaths[dy].Dist[sx][dx]
	}
	return head + float64(s.cfg.RouterStages-1) + 2 + float64(p.flits-1)
}

// InFlight reports flits currently inside routers and channels (for tests).
func (s *Simulator) InFlight() int64 { return s.inFlightFlits }

// Now reports the current simulation cycle (for tests).
func (s *Simulator) Now() int64 { return s.now }

// DebugString summarizes the built network.
func (s *Simulator) DebugString() string {
	chFlits := 0
	for _, ch := range s.channels {
		chFlits += ch.q.len()
	}
	return fmt.Sprintf("sim{%s %dx%d routers=%d channels=%d width=%db cycle=%d inflight=%d chflits=%d}",
		s.cfg.Topo.Name, s.w, s.h, len(s.routers), len(s.channels), s.cfg.WidthBits, s.now, s.inFlightFlits, chFlits)
}
