// Package sim is a from-scratch cycle-accurate network-on-chip simulator,
// standing in for the gem5+GARNET infrastructure of the paper's evaluation
// (Section 5.1). It models the canonical router the paper assumes: a 3-stage
// credit-based wormhole pipeline with virtual channels, table-driven
// dimension-order routing with express links, repeatered multi-cycle express
// channels, and per-node network interfaces with source queues.
//
// Timing convention (validated against the analytic model by tests): a flit
// written into an input buffer at cycle t becomes eligible for switch
// allocation at t + (RouterStages - 1); winning at cycle s it is delivered
// into the next input buffer at s + 1 + L for a link of length L. The
// minimum per-hop head latency is therefore RouterStages + L cycles, matching
// Eq. (1)'s H·Tr + D·Tl with Tr = RouterStages and Tl = 1.
package sim

import (
	"fmt"
	"math"

	"explink/internal/model"
	"explink/internal/topo"
	"explink/internal/traffic"
)

// RoutingMode selects the routing algorithm.
type RoutingMode int

const (
	// RoutingXY is the paper's dimension-order routing: X first, then Y.
	RoutingXY RoutingMode = iota
	// RoutingO1Turn randomizes each packet between XY and YX, with the
	// virtual channels partitioned into two classes (lower half for XY,
	// upper half for YX) so the channel dependency graph stays acyclic.
	// It implements the adaptive-vs-DOR comparison of Section 4.2.
	RoutingO1Turn
)

// Config describes one simulation run.
type Config struct {
	// Topo is the network under test.
	Topo topo.Topology
	// LinkLimit is the cross-section budget C the topology was designed for;
	// it determines the link width through BW when WidthBits is zero.
	LinkLimit int
	// WidthBits is the flit width b. Zero means derive from BW and LinkLimit.
	WidthBits int
	// BW is the bisection budget (defaults to the paper's 256-bit baseline).
	BW model.Bandwidth
	// Mix is the packet-size population (defaults to the paper's 1:4 mix).
	Mix []model.PacketClass
	// RouterStages is the router pipeline depth in cycles (default 3).
	RouterStages int
	// VCs is the number of virtual channels per input port (default 4).
	VCs int
	// BufBitsPerRouter is the total input buffering per router in bits; it is
	// held constant across schemes per Section 4.6 (default 5·4·4·256 =
	// 20480: a mesh router with 4-flit-deep VCs).
	BufBitsPerRouter int
	// InjectionRate is the packet injection rate per node per cycle.
	InjectionRate float64
	// Pattern chooses packet destinations.
	Pattern traffic.Pattern
	// Seed drives all randomness in the run.
	Seed uint64
	// Warmup, Measure and Drain are the phase lengths in cycles: statistics
	// cover packets created during the measurement window; after it, the
	// simulator stops injecting and runs up to Drain extra cycles to flush
	// tagged packets.
	Warmup, Measure, Drain int
	// ProgressTimeout flags a suspected deadlock when no flit moves for this
	// many cycles while traffic is in flight (default 10000).
	ProgressTimeout int
	// Routing selects dimension-order (default) or O1TURN routing.
	Routing RoutingMode
	// PipelineBypass lets a flit arriving at an idle router skip the
	// pipeline stages ahead of switch traversal, modeling virtual express
	// channel-style bypassing (Section 2.1's alternative to physical express
	// links). Per-hop latency drops from RouterStages+L to 1+L when the
	// bypass hits; any contention disables it.
	PipelineBypass bool
	// Trace replaces random traffic generation with a recorded workload:
	// each entry is injected at its cycle regardless of Pattern and
	// InjectionRate. RecordTrace captures the generated workload of this run
	// for later replay; retrieve it with Simulator.RecordedTrace.
	Trace       *Trace
	RecordTrace bool
	// Audit enables the per-cycle invariant auditor: after every cycle the
	// simulator re-derives flit conservation, per-channel credit
	// conservation, active-set/occupancy consistency and route monotonicity
	// from the raw engine state, and Run fails fast with an *AuditError
	// (matching ErrAudit) naming the first violated invariant and the cycle.
	// Auditing only reads engine state, so audited results are bit-identical
	// to unaudited ones; it costs roughly an extra network sweep per cycle.
	Audit bool
	// Concentration is the number of cores sharing each router (default 1).
	// The flattened butterfly of [17] concentrates several cores per router
	// to shrink the network; with Concentration k, every router gets k
	// injection and k ejection ports, node ids range over k·W·H cores, and
	// core c attaches to router c/k. Traffic patterns must be built for the
	// core count (e.g. traffic.UniformRandomN(k*w*h)); geometric patterns
	// like transpose assume one core per router.
	Concentration int
}

// DefaultBufBits is the default per-router buffering budget: the baseline
// mesh router's 5 ports x 4 VCs x 4-flit-deep x 256-bit buffers.
const DefaultBufBits = 5 * 4 * 4 * 256

// NewConfig returns a simulation config with the paper's defaults for the
// given topology, link limit, traffic pattern and injection rate.
func NewConfig(t topo.Topology, linkLimit int, pat traffic.Pattern, rate float64) Config {
	return Config{
		Topo:             t,
		LinkLimit:        linkLimit,
		BW:               model.DefaultBandwidth(),
		Mix:              model.DefaultMix(),
		RouterStages:     3,
		VCs:              4,
		BufBitsPerRouter: DefaultBufBits,
		InjectionRate:    rate,
		Pattern:          pat,
		Seed:             1,
		Warmup:           2000,
		Measure:          10000,
		Drain:            30000,
		ProgressTimeout:  10000,
	}
}

// normalize validates the config and fills derived fields, returning the
// flit width and per-VC buffer depth (in flits) for a router with the given
// number of input ports.
func (c *Config) normalize() error {
	if c.Topo.W < 2 || c.Topo.H < 2 {
		return fmt.Errorf("sim: topology too small (%dx%d)", c.Topo.W, c.Topo.H)
	}
	if c.LinkLimit < 1 {
		return fmt.Errorf("sim: link limit %d", c.LinkLimit)
	}
	if err := c.Topo.Validate(c.LinkLimit); err != nil {
		return err
	}
	if c.BW == (model.Bandwidth{}) {
		c.BW = model.DefaultBandwidth()
	}
	if c.WidthBits == 0 {
		w, err := c.BW.Width(c.LinkLimit)
		if err != nil {
			return err
		}
		c.WidthBits = w
	}
	if c.WidthBits <= 0 {
		// Flit counts divide by the width (flitsForBits, model.FlitsFor): a
		// zero or negative width would divide by zero during trace replay or
		// produce packets with no flits.
		return fmt.Errorf("sim: flit width %d bits must be positive: %w", c.WidthBits, ErrConfig)
	}
	if len(c.Mix) == 0 {
		c.Mix = model.DefaultMix()
	}
	if err := model.ValidateMix(c.Mix); err != nil {
		return err
	}
	if c.RouterStages < 1 {
		c.RouterStages = 3
	}
	if c.VCs < 1 {
		c.VCs = 4
	}
	if c.VCs > 64 {
		// The allocator tracks per-port VC occupancy in a 64-bit mask.
		return fmt.Errorf("sim: %d VCs exceeds the supported maximum of 64", c.VCs)
	}
	if c.BufBitsPerRouter <= 0 {
		c.BufBitsPerRouter = DefaultBufBits
	}
	if c.InjectionRate < 0 || c.InjectionRate > 1 {
		return fmt.Errorf("sim: injection rate %g out of [0,1]", c.InjectionRate)
	}
	if c.Trace != nil {
		k := c.Concentration
		if k == 0 {
			k = 1
		}
		if c.Trace.W != c.Topo.W || c.Trace.H != c.Topo.H || c.Trace.concentration() != k {
			return fmt.Errorf("sim: trace for %dx%dx%d replayed on %dx%dx%d",
				c.Trace.W, c.Trace.H, c.Trace.concentration(), c.Topo.W, c.Topo.H, k)
		}
		if err := c.Trace.Validate(); err != nil {
			return err
		}
	} else if c.Pattern == nil {
		return fmt.Errorf("sim: no traffic pattern")
	}
	if c.Warmup < 0 || c.Measure <= 0 || c.Drain < 0 {
		return fmt.Errorf("sim: bad phase lengths warmup=%d measure=%d drain=%d", c.Warmup, c.Measure, c.Drain)
	}
	if c.Measure > math.MaxInt-c.Warmup || c.Drain > math.MaxInt-c.Warmup-c.Measure {
		// The phase boundaries are cumulative cycle counts; a wrapped sum
		// would end the run before it starts and report it drained.
		return fmt.Errorf("sim: phase lengths warmup=%d measure=%d drain=%d overflow the cycle counter: %w",
			c.Warmup, c.Measure, c.Drain, ErrConfig)
	}
	if c.ProgressTimeout <= 0 {
		c.ProgressTimeout = 10000
	}
	if c.Routing == RoutingO1Turn && c.VCs < 2 {
		return fmt.Errorf("sim: O1TURN needs at least 2 VCs to partition, got %d", c.VCs)
	}
	if c.Concentration == 0 {
		c.Concentration = 1
	}
	if c.Concentration < 1 || c.Concentration > 16 {
		return fmt.Errorf("sim: concentration %d out of [1,16]", c.Concentration)
	}
	return nil
}

// vcDepth returns the per-VC buffer depth in flits for a router with inPorts
// input ports, derived from the fixed per-router bit budget (Section 4.6:
// "we configure the buffer size of each router to be the same for all
// schemes"). At least 2 flits to keep wormhole flow control live.
func (c *Config) vcDepth(inPorts int) int {
	d := c.BufBitsPerRouter / (inPorts * c.VCs * c.WidthBits)
	if d < 2 {
		d = 2
	}
	return d
}
