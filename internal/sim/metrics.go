package sim

import (
	"fmt"
	"time"

	"explink/internal/stats"
)

// Counts aggregates datapath activity over a whole run; the power model
// converts these to dynamic energy (Section 4.6).
type Counts struct {
	BufferWrites     int64 // flit writes into input buffers
	BufferReads      int64 // flit reads out of input buffers
	SwitchTraversals int64 // crossbar passes
	LinkFlitUnits    int64 // flit-hops weighted by wire length in unit segments
	VCAllocs         int64 // successful VC allocations
	CreditsSent      int64 // credit flits on reverse channels
	PacketsInjected  int64
	PacketsEjected   int64
	FlitsInjected    int64
	FlitsEjected     int64
}

// TruncateReason classifies why a run ended before draining naturally; the
// empty value means the run drained. It lets callers of Run distinguish a
// clean result from a partial one without re-deriving the cause from flags.
type TruncateReason string

const (
	// TruncatedNone: the run drained every tagged packet.
	TruncatedNone TruncateReason = ""
	// TruncatedDrainLimit: the Drain-cycle cutoff expired with traffic still
	// in flight (Run still returns a nil error; Drained is false).
	TruncatedDrainLimit TruncateReason = "drain-limit"
	// TruncatedCancelled: the run's context was cancelled or its deadline
	// expired; Run returned an error matching ErrCancelled.
	TruncatedCancelled TruncateReason = "cancelled"
	// TruncatedDeadlock: no flit moved for ProgressTimeout cycles; Run
	// returned a *DeadlockError.
	TruncatedDeadlock TruncateReason = "deadlock"
	// TruncatedAudit: Config.Audit detected an invariant violation; Run
	// returned an *AuditError.
	TruncatedAudit TruncateReason = "audit"
)

// Result reports the measured behaviour of one simulation run. Latency
// statistics cover packets created during the measurement window; throughput
// counts every ejection inside the window.
type Result struct {
	Topology string
	Pattern  string
	InjRate  float64

	Cycles int64 // total simulated cycles

	// Packet latency: creation at the source NI to tail arrival at the
	// destination NI (includes source queueing and serialization).
	AvgPacketLatency float64
	// Network latency: head flit entering the first router to tail arrival.
	AvgNetLatency float64
	P95Latency    int
	P99Latency    int
	MaxLatency    int

	AvgHops float64
	// AvgContentionPerHop is the mean queueing delay per hop beyond the
	// zero-load pipeline latency — the empirical Tc of Section 2.2.
	AvgContentionPerHop float64

	// Throughput in accepted packets (and flits) per node per cycle during
	// the measurement window.
	ThroughputPackets float64
	ThroughputFlits   float64

	MeasuredPackets   int64
	Drained           bool
	DeadlockSuspected bool
	// Truncated records why the run stopped before draining; empty for a
	// clean run. omitempty keeps drained fixtures byte-identical to the
	// pre-run-control engine.
	Truncated TruncateReason `json:",omitempty"`

	// WallTime is the host wall-clock duration of Run, and CyclesPerSec the
	// resulting simulated-cycles-per-second rate. Both describe the machine,
	// not the network: they are the only non-deterministic Result fields,
	// and the golden bit-identity fixtures exclude them.
	WallTime     time.Duration
	CyclesPerSec float64

	Counts Counts
}

func (r Result) String() string {
	s := fmt.Sprintf("%s/%s rate=%.4f: lat=%.2f (net %.2f, p99 %d) hops=%.2f tc=%.2f thr=%.4f pkt/node/cy drained=%v",
		r.Topology, r.Pattern, r.InjRate, r.AvgPacketLatency, r.AvgNetLatency,
		r.P99Latency, r.AvgHops, r.AvgContentionPerHop, r.ThroughputPackets, r.Drained)
	if r.Truncated != TruncatedNone {
		s += fmt.Sprintf(" truncated=%s", r.Truncated)
	}
	return s
}

// collector accumulates per-packet statistics during a run.
type collector struct {
	latency         *stats.Histogram // packet latency (created -> done)
	netLatency      stats.Running
	hops            stats.Running
	contention      stats.Running
	ejectedInWindow int64 // packets
	flitsInWindow   int64
}

func newCollector() *collector {
	return &collector{latency: stats.NewHistogram()}
}
