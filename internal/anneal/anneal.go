// Package anneal implements the simulated-annealing search of Section 4.4:
// the state is a connection matrix (so every candidate is feasible by
// construction), the candidate generator flips one uniformly random
// connection point per move, acceptance is exponential (e^{-ΔL/T}), and the
// cooling schedule divides the temperature by a constant every fixed number
// of moves (Table 1).
//
// There is one move loop, MinimizePareto. Its objective is k-dimensional and
// its "best so far" is a bounded archive of mutually non-dominated states
// (AMOSA-style, the Pareto extension of the paper's search). With k=1 the
// acceptance rule is exactly the scalar one — accept iff ΔL ≤ 0, else draw
// against e^{-ΔL/T} — and the archive holds the single best state, so the
// paper's scalar search is the k=1 case rather than a separate driver.
package anneal

import (
	"context"
	"math"

	"explink/internal/stats"
	"explink/internal/topo"
)

// Schedule is the SA parameter set of Table 1.
type Schedule struct {
	T0        float64 // initial temperature, in cycles of ΔL_avg
	Moves     int     // total number of moves m
	CoolEvery int     // moves between cooldowns, m_c
	CoolDiv   float64 // cooldown scale S_c (T <- T / S_c)
	// StopAfterNoImprove ends the search early once this many consecutive
	// moves fail to improve the best state (0 disables early stopping).
	// Useful when measuring convergence runtime rather than fixed budgets.
	StopAfterNoImprove int
}

// DefaultSchedule returns the paper's Table 1 parameters: T0 = 10 cycles,
// m = 10^4 moves, S_c = 2, m_c = 10^3.
func DefaultSchedule() Schedule {
	return Schedule{T0: 10, Moves: 10000, CoolEvery: 1000, CoolDiv: 2}
}

// WithMoves returns a copy of the schedule with a different move budget,
// keeping the cooldown cadence proportional so shorter runs still cool.
func (s Schedule) WithMoves(moves int) Schedule {
	out := s
	out.Moves = moves
	if s.Moves > 0 && s.CoolEvery > 0 {
		ratio := float64(moves) / float64(s.Moves)
		ce := int(math.Round(float64(s.CoolEvery) * ratio))
		if ce < 1 {
			ce = 1
		}
		out.CoolEvery = ce
	}
	return out
}

// VectorMoveObjective scores the annealer's walk through the
// connection-matrix space in k objective dimensions (lower is better in
// every dimension). Instead of scoring arbitrary rows from scratch it follows
// the walk move by move, which lets implementations (model.IncObjective, on
// top of route.Incremental) re-route only the dirty region of each
// single-bit candidate.
//
// The annealer drives it with a strict protocol: Init once with the initial
// matrix, then for every move exactly one Flip followed by either Commit
// (move accepted) or Revert (move rejected), with at most one Eval in
// between. Eval is only called on memo misses, so implementations must keep
// their state in step inside Flip/Commit/Revert, not inside Eval. Values are
// written into caller-provided buffers of length K() so the move loop stays
// allocation-free on the evaluation path. The matrix passed to Init is owned
// by the annealer and must not be retained or modified.
type VectorMoveObjective interface {
	// K returns the number of objective dimensions; constant for the lifetime
	// of the objective and at least 1.
	K() int
	// Init adopts the initial state and writes its objective vector to dst.
	Init(m *topo.ConnMatrix, dst []float64)
	// Flip applies the single-bit move FlipAt(bit) to the tracked state.
	Flip(bit int)
	// Eval writes the objective vector of the tracked state to dst.
	Eval(dst []float64)
	// Commit accepts the pending move.
	Commit()
	// Revert undoes the pending move.
	Revert()
}

// DefaultArchiveCap bounds the non-dominated archive when ParetoOpts leaves
// ArchiveCap unset. Frontiers here are presentation artifacts (a trade-off
// table, a plot), so a few dozen well-spread points beat hundreds of near
// duplicates.
const DefaultArchiveCap = 32

// ParetoOpts configures MinimizePareto beyond the shared Schedule.
type ParetoOpts struct {
	// ArchiveCap bounds the archive size; when an insertion overflows it the
	// most crowded entry is pruned. <= 0 means DefaultArchiveCap.
	ArchiveCap int
	// Scales normalizes per-dimension deltas inside the acceptance rule:
	// the uphill draw uses max_d(Δ_d / Scales[d]) as the scalar Δ, so
	// dimensions with wildly different units (cycles vs watts vs bit-units)
	// share one temperature scale. nil or non-positive entries mean 1. Scales
	// never affect dominance, the archive, or which states are reachable
	// downhill — only the uphill acceptance probability.
	Scales []float64
}

// ParetoEntry is one archived placement with its objective vector.
type ParetoEntry struct {
	Matrix *topo.ConnMatrix
	Row    topo.Row
	Objs   []float64
}

// ParetoResult reports the final archive and the search statistics. At k=1
// Entries holds exactly the best state found.
type ParetoResult struct {
	// Entries are mutually non-dominated, with pairwise-distinct objective
	// vectors, sorted lexicographically by Objs — a deterministic function of
	// (init, objective, schedule, opts, seed).
	Entries  []ParetoEntry
	Evals    int64 // objective queries (includes the initial one)
	Accepted int64 // accepted moves
	Uphill   int64 // accepted moves worse in at least one dimension
	// MemoHits counts objective queries served from the state memo (revisited
	// bit patterns, mostly flip/revert churn); MemoMisses counts queries that
	// paid an evaluation. Evals == MemoHits + MemoMisses, so MemoMisses is the
	// Fig. 7-style measure of actual work done.
	MemoHits      int64
	MemoMisses    int64
	ArchivePruned int64 // entries evicted by the crowding pruner
}

// memoCap bounds the objective memo so pathological schedules cannot grow it
// without limit; at the paper's 10⁴ moves the cap is never approached.
const memoCap = 1 << 20

// memoPresizeWords caps the memo's key arena allocated before the first move
// (1 MiB), so a wide matrix with a huge move budget cannot demand gigabytes
// up front; a default 10⁴-move search over keys of up to 13 words (832 bits)
// still fits inside it and never grows.
const memoPresizeWords = 1 << 17

// MinimizePareto runs simulated annealing from the given initial matrix; the
// initial matrix is not modified. When the matrix has no connection points
// (C = 1 or n <= 2) the initial state is returned unchanged.
//
// Acceptance: a candidate no worse in every dimension is accepted outright,
// otherwise one uphill draw against e^{-maxΔ/T} on the scale-normalized
// worst dimension. Best-state tracking is a bounded archive of
// non-dominated states, pruned by crowding distance; StopAfterNoImprove
// counts moves since the archive last changed.
//
// ctx is polled on the first move and every 64th after it, so cancelling it
// ends the search within 64 moves; the archive found so far is returned
// (anytime semantics — the caller decides whether a truncated search is an
// error, see core.SolveRow).
//
// Objective vectors are memoized by connection-matrix bit pattern in one
// flat arena, indexed by an open-addressing table over packed keys: a move
// that revisits a known state (typically the flip/revert churn around the
// current state) reuses the cached vector instead of calling Eval. The memo never changes the trajectory — revisited states
// score identically either way.
//
// Determinism: one rng.Intn per move and one rng.Float64 per non-improving
// move; the memo and the archive never touch the RNG, so same inputs + same
// seed give the same archive, byte for byte.
func MinimizePareto(ctx context.Context, init *topo.ConnMatrix, vo VectorMoveObjective, opts ParetoOpts, sch Schedule, rng *stats.RNG) ParetoResult {
	if ctx == nil {
		ctx = context.Background()
	}
	k := vo.K()
	cur := init.Clone()
	bits := cur.Bits()
	moves := max(sch.Moves, 0)
	if bits == 0 {
		moves = 0
	}
	archCap := opts.ArchiveCap
	if archCap <= 0 {
		archCap = DefaultArchiveCap
	}
	ar := newArchive(archCap)
	scales := make([]float64, k)
	for d := range scales {
		scales[d] = scaleAt(opts.Scales, d)
	}

	curObjs := make([]float64, k)
	vo.Init(cur, curObjs)
	res := ParetoResult{Evals: 1, MemoMisses: 1}
	track := newObsTracker() // nil (free) unless EnableMetrics was called
	ar.insert(cur, curObjs)
	if moves == 0 {
		ar.finish(&res, track, sch.T0)
		return res
	}

	// memo holds the packed key of every stored state; entry e's vector is
	// arena[e*k:]. Both are presized for the states the search can store: one
	// per evaluation and one per bit pattern, never more than memoCap.
	// Computed without moves+1, so a move budget of math.MaxInt cannot
	// overflow it. The presize is further capped so the key arena starts at
	// no more than memoPresizeWords; a search that stores more grows both by
	// append and the slot table by rehash.
	reach := min(memoCap, 1<<min(bits, 20))
	stored := min(reach-1, moves) + 1
	key := packKey(cur)
	presize := min(stored, max(memoPresizeWords/len(key), 1))
	arena := make([]float64, k, presize*k)
	copy(arena, curObjs)
	memo := newMemoTable(len(key), presize)
	memo.add(key)

	candObjs := make([]float64, k)
	temp := sch.T0
	sinceImprove := 0
	for move := 1; move <= moves; move++ {
		if sch.StopAfterNoImprove > 0 && sinceImprove >= sch.StopAfterNoImprove {
			break
		}
		if move&63 == 1 && ctx.Err() != nil {
			break // Err locks the context's mutex: too dear to pay every move
		}
		if track != nil {
			track.moves++
		}
		i := rng.Intn(bits)
		cur.FlipAt(i)
		vo.Flip(i)
		// Maintain the packed memo key incrementally: packKey puts bit i in
		// word i>>6 at position i&63, so a single-bit move is one XOR rather
		// than a full repack. The reject branch undoes it below.
		key[i>>6] ^= 1 << (i & 63)
		cand := candObjs
		if e, ok := memo.lookup(key); ok {
			res.MemoHits++
			cand = arena[e*k : e*k+k]
		} else {
			vo.Eval(candObjs)
			res.MemoMisses++
			if memo.len() < memoCap {
				memo.add(key)
				arena = append(arena, candObjs...)
			}
		}
		res.Evals++

		// Downhill-or-flat in every dimension is free; otherwise one draw
		// against the worst scale-normalized uphill delta. For k=1 this is
		// exactly the scalar rule, same RNG consumption.
		noWorse := true
		maxDelta := math.Inf(-1)
		for d, s := range scales {
			delta := cand[d] - curObjs[d]
			if delta > 0 {
				noWorse = false
			}
			if s != 1 {
				delta /= s
			}
			if delta > maxDelta {
				maxDelta = delta
			}
		}
		accept := noWorse
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp(-maxDelta/temp)
		}
		sinceImprove++
		if accept {
			vo.Commit()
			res.Accepted++
			if !noWorse {
				res.Uphill++
			}
			copy(curObjs, cand)
			if ar.insert(cur, curObjs) {
				sinceImprove = 0
				res.ArchivePruned += int64(ar.prune())
			}
		} else {
			cur.FlipAt(i)
			vo.Revert()
			key[i>>6] ^= 1 << (i & 63)
		}

		if sch.CoolEvery > 0 && move%sch.CoolEvery == 0 && sch.CoolDiv > 0 {
			temp /= sch.CoolDiv
			track.flush(&res, ar, temp) // cooldowns are the metrics cadence
		}
	}
	ar.finish(&res, track, temp)
	return res
}

// scaleAt returns the acceptance scale for dimension d: Scales[d] when it is
// present, positive and finite, else 1.
func scaleAt(scales []float64, d int) float64 {
	if d >= len(scales) {
		return 1
	}
	s := scales[d]
	if !(s > 0) || math.IsInf(s, 1) {
		return 1
	}
	return s
}
