package sim

import (
	"math/bits"
	"sync/atomic"

	"explink/internal/obs"
)

// metricSet holds the simulator's exported instruments. One set is shared by
// every Simulator in the process: counters aggregate across concurrent runs,
// gauges reflect the most recently published snapshot. All instruments are
// nil-safe, but the engine additionally gates every publish on a single
// `met == nil` check so a disabled build pays nothing at all.
type metricSet struct {
	cyclesWarmup  *obs.Counter // sim_cycles_total{phase="warmup"}
	cyclesMeasure *obs.Counter // sim_cycles_total{phase="measure"}
	cyclesDrain   *obs.Counter // sim_cycles_total{phase="drain"}

	flitsInjected  *obs.Counter // sim_flits_injected_total
	flitsDelivered *obs.Counter // sim_flits_delivered_total
	pktsInjected   *obs.Counter // sim_packets_injected_total
	pktsDelivered  *obs.Counter // sim_packets_delivered_total

	runsStarted  *obs.Counter // sim_runs_started_total
	runsFinished *obs.Counter // sim_runs_finished_total
	runTime      *obs.Timer   // sim_run_total / sim_run_seconds_total

	watchdogArmed *obs.Counter // sim_deadlock_watchdog_armed_total
	watchdogFired *obs.Counter // sim_deadlock_watchdog_fired_total

	activeChannels *obs.Gauge // sim_active_channels
	activeRouters  *obs.Gauge // sim_active_routers
	activeNIs      *obs.Gauge // sim_active_nis
	inFlight       *obs.Gauge // sim_in_flight_flits

	cyclesPerSec *obs.FloatGauge // sim_cycles_per_sec

	batchReplicas     *obs.Gauge      // sim_batch_replicas
	batchActive       *obs.Gauge      // sim_batch_replicas_active
	batchCyclesPerSec *obs.FloatGauge // sim_batch_cycles_per_sec
}

// simMet is the process-wide metric set; nil (the default) disables all
// simulator instrumentation.
var simMet atomic.Pointer[metricSet]

// EnableMetrics registers the simulator's metrics on reg and turns on
// periodic publication for every subsequent Run. Publication happens on the
// run loop's existing 512-cycle housekeeping cadence, so the per-cycle hot
// path is untouched: steady-state stepping stays allocation-free and within
// noise of the uninstrumented engine. A nil registry disables metrics again.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		simMet.Store(nil)
		return
	}
	m := &metricSet{
		cyclesWarmup:   reg.Counter("sim_cycles_total", "simulated cycles by phase", obs.L("phase", "warmup")),
		cyclesMeasure:  reg.Counter("sim_cycles_total", "simulated cycles by phase", obs.L("phase", "measure")),
		cyclesDrain:    reg.Counter("sim_cycles_total", "simulated cycles by phase", obs.L("phase", "drain")),
		flitsInjected:  reg.Counter("sim_flits_injected_total", "flits injected into the network"),
		flitsDelivered: reg.Counter("sim_flits_delivered_total", "flits ejected at their destination NI"),
		pktsInjected:   reg.Counter("sim_packets_injected_total", "packets created at source NIs"),
		pktsDelivered:  reg.Counter("sim_packets_delivered_total", "packets fully ejected"),
		runsStarted:    reg.Counter("sim_runs_started_total", "simulation runs started"),
		runsFinished:   reg.Counter("sim_runs_finished_total", "simulation runs finished (any outcome)"),
		runTime:        reg.Timer("sim_run", "simulation run wall time"),
		watchdogArmed:  reg.Counter("sim_deadlock_watchdog_armed_total", "stall episodes that crossed half the deadlock timeout"),
		watchdogFired:  reg.Counter("sim_deadlock_watchdog_fired_total", "deadlock detector firings"),
		activeChannels: reg.Gauge("sim_active_channels", "channels holding flits at last publish"),
		activeRouters:  reg.Gauge("sim_active_routers", "routers on the active set at last publish"),
		activeNIs:      reg.Gauge("sim_active_nis", "NIs on the active set at last publish"),
		inFlight:       reg.Gauge("sim_in_flight_flits", "flits inside routers and channels at last publish"),
		cyclesPerSec:   reg.FloatGauge("sim_cycles_per_sec", "simulated cycles per wall second of the last finished run"),

		batchReplicas:     reg.Gauge("sim_batch_replicas", "replicas in the most recently started batch"),
		batchActive:       reg.Gauge("sim_batch_replicas_active", "batch replicas currently running"),
		batchCyclesPerSec: reg.FloatGauge("sim_batch_cycles_per_sec", "aggregate simulated cycles per wall second of the last finished batch"),
	}
	simMet.Store(m)
}

// popcount sums the set bits of an active-set bitmap.
func popcount(words []uint64) int64 {
	var n int64
	for _, w := range words {
		n += int64(bits.OnesCount64(w))
	}
	return n
}

// busyChannels counts the channels with at least one flit on the wire.
func (s *Simulator) busyChannels() int64 {
	var n int64
	for _, ch := range s.channels {
		if ch.q.len() > 0 {
			n++
		}
	}
	return n
}

// phaseSplit attributes the half-open cycle window [from, to) to the warmup,
// measurement and drain phases. Windows are tiny (the publish cadence), so
// exact clamping is cheaper than tracking a phase cursor.
func (s *Simulator) phaseSplit(from, to int64) (warm, meas, drain int64) {
	clamp := func(lo, hi int64) int64 {
		if hi < lo {
			return 0
		}
		return hi - lo
	}
	warm = clamp(max(from, 0), min(to, s.warmEnd))
	meas = clamp(max(from, s.warmEnd), min(to, s.measEnd))
	drain = clamp(max(from, s.measEnd), to)
	return
}

// publishObs pushes the delta since the last publish into the shared metric
// set. Called from Run on the 512-cycle housekeeping cadence and once at run
// end; never from step, so benchmarks that drive step directly see no change.
func (s *Simulator) publishObs() {
	m := s.met
	warm, meas, drain := s.phaseSplit(s.pubCycle, s.now)
	m.cyclesWarmup.Add(warm)
	m.cyclesMeasure.Add(meas)
	m.cyclesDrain.Add(drain)
	s.pubCycle = s.now

	m.flitsInjected.Add(s.counts.FlitsInjected - s.pubCounts.FlitsInjected)
	m.flitsDelivered.Add(s.counts.FlitsEjected - s.pubCounts.FlitsEjected)
	m.pktsInjected.Add(s.counts.PacketsInjected - s.pubCounts.PacketsInjected)
	m.pktsDelivered.Add(s.counts.PacketsEjected - s.pubCounts.PacketsEjected)
	s.pubCounts = s.counts

	m.activeChannels.Set(s.busyChannels())
	m.activeRouters.Set(popcount(s.rtrAct))
	m.activeNIs.Set(popcount(s.niAct))
	m.inFlight.Set(s.inFlightFlits)

	// Watchdog arming: count one episode each time a stall crosses half the
	// deadlock timeout with traffic in flight; progress rearms the edge.
	stalled := s.inFlightFlits > 0 && s.now-s.lastProgress > int64(s.cfg.ProgressTimeout)/2
	if stalled && !s.watchdogArmed {
		m.watchdogArmed.Inc()
	}
	s.watchdogArmed = stalled
}
