package sim

import (
	"fmt"
	"math/bits"

	"explink/internal/model"
	"explink/internal/route"
	"explink/internal/stats"
	"explink/internal/topo"
)

// linkRec describes one directed link of the canonical link enumeration:
// router id ascending, row neighbors then column neighbors, ascending
// position. srcPort / dstPort are the out/in port indices the link occupies
// at its endpoints (both after the k ejection/injection ports).
type linkRec struct {
	src, dst, length int
	srcPort, dstPort int
}

// netShared is everything about a built network that does not depend on the
// seed: the link enumeration, routing tables, packet mix tables, buffer
// sizing and phase boundaries. It is immutable once built and safe for
// concurrent reads, so one netShared can instantiate any number
// of replica Simulators — differing only by Config.Seed — that share it (the
// structure-of-arrays split behind sim.Batch: shared immutable columns here,
// per-replica mutable state in each Simulator's own arenas).
type netShared struct {
	cfg     Config // normalized; Seed is overridden per replica
	w, h    int
	k       int // cores per router (concentration)
	nodes   int // total cores
	routers int

	rowPaths []*route.RowPaths
	colPaths []*route.RowPaths

	links             []linkRec
	outCount, inCount []int // ports per router, ejection/injection included
	depthOf           []int // per-VC buffer depth per router
	totOut, totIn     int
	totBuf            int
	maxIn, maxOut     int
	maxLatency        int       // longest link: sizes the timing wheels
	rowOutTab         [][]int32 // rowOutTab[id][col] = out port to row neighbor, -1 none
	colOutTab         [][]int32
	routeXY, routeYX  []int32 // flattened dst->outPort tables, nil over the size cutoff
	mixCum            []float64
	mixFlits          []int
	warmEnd, measEnd  int64
	hardEnd           int64
}

// newShared validates and defaults the config, then builds the shared
// network description. Duplicate parallel spans are dropped: the
// deterministic routing tables would never spread load across them, so they
// only waste ports.
func newShared(cfg Config) (*netShared, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := cfg.Topo
	w, h := t.W, t.H
	k := cfg.Concentration
	routers := t.NumRouters()
	sh := &netShared{
		cfg: cfg, w: w, h: h, k: k,
		nodes: routers * k, routers: routers,
	}

	// Zero-contention routing parameters: the tables must match the analytic
	// model's paths.
	rp := route.Params{PerHop: cfg.RouterStages, PerUnit: 1}
	sh.rowPaths = make([]*route.RowPaths, h)
	sh.colPaths = make([]*route.RowPaths, w)
	rows := make([]rowLinks, h)
	cols := make([]rowLinks, w)
	for y := 0; y < h; y++ {
		r := t.Rows[y].Dedupe()
		sh.rowPaths[y] = route.Compute(r, rp)
		rows[y] = linksOf(r)
	}
	for x := 0; x < w; x++ {
		c := t.Cols[x].Dedupe()
		sh.colPaths[x] = route.Compute(c, rp)
		cols[x] = linksOf(c)
	}

	// Enumerate the link set in its canonical creation order and assign every
	// link its port indices at both endpoints: out ports are the k ejection
	// ports followed by this router's outgoing links in enumeration order, in
	// ports the k injection ports followed by incoming links in global
	// arrival (enumeration) order.
	sh.outCount = make([]int, routers)
	sh.inCount = make([]int, routers)
	sh.rowOutTab = make([][]int32, routers)
	sh.colOutTab = make([][]int32, routers)
	for id := 0; id < routers; id++ {
		sh.outCount[id] = k
		sh.inCount[id] = k
		sh.rowOutTab[id] = negOnes(w)
		sh.colOutTab[id] = negOnes(h)
	}
	for id := 0; id < routers; id++ {
		x, y := id%w, id/w
		for _, nb := range rows[y].neighbors[x] {
			dst := y*w + nb
			sh.rowOutTab[id][nb] = int32(sh.outCount[id])
			sh.links = append(sh.links, linkRec{
				src: id, dst: dst, length: absInt(nb - x),
				srcPort: sh.outCount[id], dstPort: sh.inCount[dst],
			})
			sh.outCount[id]++
			sh.inCount[dst]++
		}
		for _, nb := range cols[x].neighbors[y] {
			dst := nb*w + x
			sh.colOutTab[id][nb] = int32(sh.outCount[id])
			sh.links = append(sh.links, linkRec{
				src: id, dst: dst, length: absInt(nb - y),
				srcPort: sh.outCount[id], dstPort: sh.inCount[dst],
			})
			sh.outCount[id]++
			sh.inCount[dst]++
		}
	}
	for _, lr := range sh.links {
		sh.maxLatency = max(sh.maxLatency, lr.length)
	}
	vcs := cfg.VCs
	sh.depthOf = make([]int, routers)
	for id := 0; id < routers; id++ {
		if n := sh.inCount[id]; n > 64 {
			// The allocator tracks per-router port occupancy in a 64-bit
			// mask, as it tracks per-port VC occupancy (Config.VCs <= 64).
			return nil, fmt.Errorf("sim: router %d (%d,%d) has %d input ports, exceeding the supported maximum of 64: %w",
				id, id%w, id/w, n, ErrConfig)
		}
		sh.totOut += sh.outCount[id]
		sh.totIn += sh.inCount[id]
		sh.depthOf[id] = cfg.vcDepth(sh.inCount[id])
		sh.totBuf += sh.inCount[id] * vcs * sh.depthOf[id]
		if sh.inCount[id] > sh.maxIn {
			sh.maxIn = sh.inCount[id]
		}
		if sh.outCount[id] > sh.maxOut {
			sh.maxOut = sh.outCount[id]
		}
	}

	// The row/column tables are complete: flatten them into per-router
	// dst -> outPort lookups unless the network is so large the tables would
	// dominate memory (paper-scale networks are nowhere near the cutoff).
	// Under DOR only the XY table is ever consulted, so the YX slot aliases
	// it rather than baking routes no packet takes.
	if routers*sh.nodes <= 1<<22 {
		sh.routeXY = make([]int32, routers*sh.nodes)
		if cfg.Routing == RoutingO1Turn {
			sh.routeYX = make([]int32, routers*sh.nodes)
		}
		for id := 0; id < routers; id++ {
			r := sh.routing(id)
			xy := sh.routeXY[id*sh.nodes : (id+1)*sh.nodes]
			for dst := range xy {
				xy[dst] = r.routeFlit(dst, w, k, false)
			}
			if sh.routeYX != nil {
				yx := sh.routeYX[id*sh.nodes : (id+1)*sh.nodes]
				for dst := range yx {
					yx[dst] = r.routeFlit(dst, w, k, true)
				}
			}
		}
	}

	// Packet-size mix lookup tables.
	sh.mixCum = make([]float64, len(cfg.Mix))
	sh.mixFlits = make([]int, len(cfg.Mix))
	cum := 0.0
	for i, c := range cfg.Mix {
		cum += c.Frac
		sh.mixCum[i] = cum
		sh.mixFlits[i] = model.FlitsFor(c.Bits, cfg.WidthBits)
	}
	sh.warmEnd = int64(cfg.Warmup)
	sh.measEnd = int64(cfg.Warmup + cfg.Measure)
	sh.hardEnd = sh.measEnd + int64(cfg.Drain)
	return sh, nil
}

// routing returns router id with only its position and its two-table
// routing state (Fig. 3b) set.
func (sh *netShared) routing(id int) router {
	return router{
		id: id, x: id % sh.w, y: id / sh.w,
		rowNext: sh.rowPaths[id/sh.w].Next,
		colNext: sh.colPaths[id%sh.w].Next,
		rowOut:  sh.rowOutTab[id],
		colOut:  sh.colOutTab[id],
	}
}

// instantiate builds one runnable replica over the shared network
// description, seeded with the given seed. All mutable state — routers,
// ports, channels, VC states, flit buffers, credit counters, NIs — is carved
// out of fresh contiguous backing arrays (one per kind, replica-major), so a
// replica stepping touches only its own few hot cache lines; everything
// seed-independent (routing tables, shortest paths, mix tables) is
// referenced from the shared side. The wiring order matches the original
// single-run construction exactly, so instantiate(cfg.Seed) is bit-identical
// to the pre-split New.
func (sh *netShared) instantiate(seed uint64) *Simulator {
	cfg := sh.cfg
	cfg.Seed = seed
	s := &Simulator{
		cfg:      cfg,
		col:      newCollector(),
		rng:      stats.NewRNG(seed),
		w:        sh.w,
		h:        sh.h,
		k:        sh.k,
		nodes:    sh.nodes,
		rowPaths: sh.rowPaths,
		colPaths: sh.colPaths,
		mixCum:   sh.mixCum,
		mixFlits: sh.mixFlits,
		warmEnd:  sh.warmEnd,
		measEnd:  sh.measEnd,
		hardEnd:  sh.hardEnd,
	}
	routers, vcs, k := sh.routers, cfg.VCs, sh.k
	routerStore := make([]router, routers)
	chStore := make([]channel, len(sh.links))
	outStore := make([]outPort, sh.totOut)
	inStore := make([]inPort, sh.totIn)
	vcStore := make([]vcState, sh.totIn*vcs)
	bufStore := make([]bufEntry, sh.totBuf)
	s.cred = make([]int, (sh.totOut+sh.nodes)*vcs) // output ports, then NIs
	niStore := make([]nodeIface, sh.nodes)
	niCred := sh.totOut * vcs

	s.routers = make([]*router, routers)
	s.nis = make([]*nodeIface, sh.nodes)
	s.channels = make([]*channel, len(sh.links))
	outOff, inOff := 0, 0
	for id := 0; id < routers; id++ {
		r := &routerStore[id]
		*r = sh.routing(id)
		r.out = outStore[outOff : outOff+sh.outCount[id] : outOff+sh.outCount[id]]
		r.in = inStore[inOff : inOff+sh.inCount[id] : inOff+sh.inCount[id]]
		outOff += sh.outCount[id]
		inOff += sh.inCount[id]
		if sh.routeXY != nil {
			xy := sh.routeXY[id*sh.nodes : (id+1)*sh.nodes]
			r.routeTabs[0], r.routeTabs[1] = xy, xy
			if sh.routeYX != nil {
				r.routeTabs[1] = sh.routeYX[id*sh.nodes : (id+1)*sh.nodes]
			}
		}
		r.inMask = uint64(1)<<uint(sh.inCount[id]) - 1
		s.routers[id] = r
	}
	for li := range sh.links {
		lr := &sh.links[li]
		ch := &chStore[li]
		*ch = channel{
			latency: int64(lr.length), lenUnits: int64(lr.length), idx: li,
			src: s.routers[lr.src], dst: s.routers[lr.dst], dstPort: lr.dstPort,
		}
		s.channels[li] = ch
		s.routers[lr.src].out[lr.srcPort].ch = ch
	}

	// Input ports: injection first, then one per incoming channel, with
	// depths from the fixed per-router buffer budget. VC states and flit
	// buffers are carved router-by-router in port order, matching the
	// original construction's arena layout.
	vcOff, bufOff := 0, 0
	for id := 0; id < routers; id++ {
		r := s.routers[id]
		depth := sh.depthOf[id]
		for pi := range r.in {
			vcl := vcStore[vcOff : vcOff+vcs : vcOff+vcs]
			vcOff += vcs
			bufs := bufStore[bufOff : bufOff+vcs*depth]
			bufOff += vcs * depth
			var upCred int
			var upLat int64 // channel inputs are wired with their upstream port below
			if pi < k {
				core := id*k + pi
				ni := &niStore[core]
				base := niCred + core*vcs
				*ni = nodeIface{
					id:       core,
					rng:      stats.NewRNG(stats.MixSeed(seed, uint64(core))),
					curVC:    -1,
					credits:  s.cred[base : base+vcs : base+vcs],
					injector: r,
					inPort:   pi,
				}
				for v := range ni.credits {
					ni.credits[v] = depth
				}
				s.nis[core] = ni
				upCred, upLat = base, 1 // credits return over the one-cycle local link
			}
			r.in[pi] = makeInPort(vcl, bufs, depth, upCred, upLat)
		}
	}

	// Wire credit returns and credit counters now that both sides exist, and
	// size ejection ports. Every VC starts free.
	credOff := 0
	for id := 0; id < routers; id++ {
		r := s.routers[id]
		for oi := range r.out {
			op := &r.out[oi]
			op.credits = s.cred[credOff : credOff+vcs : credOff+vcs]
			op.free = uint64(1)<<uint(vcs) - 1
			if op.ch == nil {
				for v := range op.credits {
					// The NI sink never backpressures: ejection spends no
					// credit, so the counter stays positive forever.
					op.credits[v] = 1 << 30
				}
				credOff += vcs
				continue
			}
			dstIn := &op.ch.dst.in[op.ch.dstPort]
			dstIn.upCred = credOff
			dstIn.upLatency = op.ch.latency
			for v := range op.credits {
				op.credits[v] = dstIn.vcs[v].fifo.cap()
			}
			credOff += vcs
		}
	}

	// Preallocate all inner-loop scratch: allocator scratch, the double-
	// buffered active work lists (each bounded by its component count), and
	// a starter packet free list. After this, steady-state step never grows
	// a slice.
	s.inCand = make([]int, sh.maxIn)
	s.outReq = make([]int, 0, sh.maxOut)
	s.vcMask = uint64(1)<<uint(vcs) - 1 // VCs <= 64 enforced by normalize
	s.rtrAct = make([]uint64, (routers+63)/64)
	s.niAct = make([]uint64, (sh.nodes+63)/64)
	s.freePkts = make([]int32, 0, 64)

	// Timing wheels: a flit is due 1+latency cycles after its grant, a
	// credit latency cycles after it. step reads a slot every wheelMask+1
	// cycles, so with more slots than the longest latency the first read of
	// an event's slot after its grant is its due cycle (at exactly
	// latency+1 slots a flit lands in the slot step has just cleared). The
	// NI link's one cycle is the floor.
	slots := 1 << bits.Len(uint(max(sh.maxLatency, 1)))
	s.wheelMask = int64(slots - 1)
	s.credWheel = make([][]int32, slots)
	s.chWords = (len(sh.links) + 63) / 64
	s.dueWheel = make([]uint64, slots*s.chWords)

	if cfg.Audit {
		s.audit = newAuditor(s)
	}
	s.met = simMet.Load()
	return s
}

func makeInPort(vcl []vcState, bufs []bufEntry, depth, upCred int, upLat int64) inPort {
	ip := inPort{vcs: vcl, upCred: upCred, upLatency: upLat}
	for v := range ip.vcs {
		ip.vcs[v] = vcState{
			fifo:    vcFIFO{buf: bufs[v*depth : (v+1)*depth : (v+1)*depth]},
			outPort: -1, outVC: -1,
		}
	}
	return ip
}

// rowLinks caches, per position on a line, the sorted distinct neighbors.
type rowLinks struct {
	neighbors [][]int
}

func linksOf(r topo.Row) rowLinks {
	nb := make([][]int, r.N)
	for i := 0; i < r.N; i++ {
		nb[i] = r.Neighbors(i)
	}
	return rowLinks{neighbors: nb}
}

func negOnes(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
