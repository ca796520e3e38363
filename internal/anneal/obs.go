package anneal

import (
	"sync/atomic"
	"time"

	"explink/internal/obs"
)

// metricSet holds the annealer's exported instruments, shared by every
// concurrent search in the process: counters aggregate, gauges reflect the
// most recent flush. The move loop batches updates at cooldown boundaries
// (and at search end) instead of per move, so instrumentation adds no
// per-move cost beyond what the schedule already pays.
type metricSet struct {
	searches   *obs.Counter    // anneal_searches_total
	searchTime *obs.Timer      // anneal_search_total / anneal_search_seconds_total
	moves      *obs.Counter    // anneal_moves_total
	evals      *obs.Counter    // anneal_evals_total
	memoHits   *obs.Counter    // anneal_memo_hits_total
	memoMisses *obs.Counter    // anneal_memo_misses_total
	accepted   *obs.Counter    // anneal_accepted_total
	uphill     *obs.Counter    // anneal_uphill_total
	temp       *obs.FloatGauge // anneal_temperature
	acceptRate *obs.FloatGauge // anneal_acceptance_ratio
	bestObj    *obs.FloatGauge // anneal_best_objective
}

var annealMet atomic.Pointer[metricSet]

// EnableMetrics registers the annealer's metrics on reg and turns on
// collection for every subsequent search. Rates (evals/sec) fall out of
// anneal_evals_total and anneal_search_seconds_total; the temperature and
// acceptance-ratio gauges trace the most recently flushed search window.
// A nil registry disables metrics again.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		annealMet.Store(nil)
		return
	}
	annealMet.Store(&metricSet{
		searches:   reg.Counter("anneal_searches_total", "simulated-annealing searches run"),
		searchTime: reg.Timer("anneal_search", "simulated-annealing search wall time"),
		moves:      reg.Counter("anneal_moves_total", "SA moves proposed"),
		evals:      reg.Counter("anneal_evals_total", "objective queries (memo hits + misses)"),
		memoHits:   reg.Counter("anneal_memo_hits_total", "objective queries served from the state memo"),
		memoMisses: reg.Counter("anneal_memo_misses_total", "objective queries that paid a full evaluation"),
		accepted:   reg.Counter("anneal_accepted_total", "accepted moves"),
		uphill:     reg.Counter("anneal_uphill_total", "accepted moves with a worse objective"),
		temp:       reg.FloatGauge("anneal_temperature", "SA temperature at the last cooldown flush"),
		acceptRate: reg.FloatGauge("anneal_acceptance_ratio", "accepted/proposed moves of the last flushed search"),
		bestObj:    reg.FloatGauge("anneal_best_objective", "best objective of the last flushed search"),
	})
}

// obsTracker batches a search's statistics into the shared metric set,
// flushing the delta since the previous flush.
type obsTracker struct {
	m     *metricSet
	start time.Time
	moves int64 // moves proposed so far

	// counter values as of the previous flush
	flushedMoves, lastEvals, lastHits, lastMisses, lastAccepted, lastUphill int64
}

// newObsTracker returns nil when metrics are disabled; all methods are
// nil-safe so the move loop can call them unconditionally at its (cold) flush
// points.
func newObsTracker() *obsTracker {
	m := annealMet.Load()
	if m == nil {
		return nil
	}
	m.searches.Inc()
	return &obsTracker{m: m, start: time.Now()}
}

// flush publishes the delta between res and the previous flush plus the
// current temperature and the archive's best dimension-0 objective.
func (t *obsTracker) flush(res *ParetoResult, ar *archive, temp float64) {
	if t == nil {
		return
	}
	t.m.moves.Add(t.moves - t.flushedMoves)
	t.m.evals.Add(res.Evals - t.lastEvals)
	t.m.memoHits.Add(res.MemoHits - t.lastHits)
	t.m.memoMisses.Add(res.MemoMisses - t.lastMisses)
	t.m.accepted.Add(res.Accepted - t.lastAccepted)
	t.m.uphill.Add(res.Uphill - t.lastUphill)
	t.flushedMoves, t.lastEvals, t.lastHits = t.moves, res.Evals, res.MemoHits
	t.lastMisses, t.lastAccepted, t.lastUphill = res.MemoMisses, res.Accepted, res.Uphill
	t.m.temp.Set(temp)
	if t.moves > 0 {
		t.m.acceptRate.Set(float64(res.Accepted) / float64(t.moves))
	}
	t.m.bestObj.Set(ar.best())
}

// done is the final flush plus the search timer observation.
func (t *obsTracker) done(res *ParetoResult, ar *archive, temp float64) {
	if t == nil {
		return
	}
	t.flush(res, ar, temp)
	t.m.searchTime.Observe(time.Since(t.start))
}
