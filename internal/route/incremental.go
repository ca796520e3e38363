package route

import (
	"fmt"
	"sync/atomic"

	"explink/internal/topo"
)

// relaxed, when set (by tests), accumulates the positions every sweep
// relaxes: the work the dirty-region bookkeeping exists to save.
var relaxed *atomic.Int64

// Incremental is a stateful row evaluator for single-span move searches: the
// simulated-annealing connection-matrix walk, the divide-and-conquer
// cross-link scan and the branch-and-bound tree all step between placements
// that differ by a handful of spans. Instead of re-routing all n sources per
// candidate the way Scratch.MeanMax does, an Incremental keeps the distance
// matrix of the current row and, on each move, recomputes only the sources
// whose shortest paths can cross a changed span — resuming each sweep at the
// changed region and stopping early once the recomputed distances reconverge
// with the stored ones.
//
// Every value it returns is bit-identical to the corresponding Scratch
// evaluation of the same row (Scratch.MeanMax, Scratch.MeanDist,
// Scratch.WeightedMean). Params.Check bounds the costs so that every
// distance and every sum is an integer that both int64 and float64 hold
// exactly: the leftward i->j distance is the rightward j->i one, so only the
// upper triangle is swept and stored, as int64, and the uniform mean comes
// from an integer running sum converted to float64 only when returned.
// Searches driven by an Incremental therefore follow bit-for-bit the same
// trajectory as ones paying a full evaluation per move.
//
// Dirty-region invariant (see DESIGN.md §10): a span (a,b) is traversed
// rightward only by sources i <= a and can only alter their distances at
// destinations v >= b. Pending changed spans are therefore summarized by
// three integers — the affected-source bound, the sweep resume position and
// the reconvergence barrier — and a sync recomputes just those row segments.
//
// Moves are transactions: while one is open, every distance a sync
// overwrites is logged with its old value, so Revert restores the matrix,
// the running sum and the pending dirty region exactly as Update found them
// (or that state synced, see sync) instead of re-sweeping what the move
// changed.
//
// An Incremental is not safe for concurrent use; give each goroutine its own.
type Incremental struct {
	n int
	p Params
	// Incoming express edges per router, by direction. The local link from
	// the neighbouring router is implicit: it always exists, so unlike
	// Scratch the sweeps neither store it nor test for unreachable routers —
	// every distance in a contiguous row is finite.
	exRight [][]int
	exLeft  [][]int
	cost    []int64 // cost[d] = p.EdgeCost(d), precomputed per unit length
	// dist is n x n row-major; only the upper triangle is kept:
	// dist[i*n+j] for j > i is the shortest i->j distance, which is also the
	// leftward j->i one. upper is its running sum.
	dist  []int64
	upper int64

	// r is the pending dirty region accumulated since the last sync. While
	// r.dirty, dist rows are stale only inside the region it describes.
	r dirtyRegion

	// Undo state of the open moves, closed strictly LIFO by Revert (undo) or
	// Commit (keep). edits logs the adjacency changes and undo every distance
	// a sync overwrote, oldest first; moves holds one saved state per open
	// move. movesBuf backs moves up to four deep without a heap allocation;
	// SA and D&C open one move at a time, BnB's deeper stacks grow it.
	//
	// Only edits[:applied] are in the adjacency. The rest belong to the
	// innermost open move and are applied at the next sync, nested Update or
	// outermost Commit, so a move reverted with no query in between (an
	// annealer memo hit) never touches the adjacency.
	edits    []incEdit
	applied  int
	undo     []incUndo
	moves    []incMove
	movesBuf [4]incMove
}

// dirtyRegion summarizes the pending changed spans (see sync).
type dirtyRegion struct {
	dirty  bool
	srcMax int // sources 0..srcMax may be affected (max From)
	from   int // sweep resume position (min To)
	to     int // reconvergence barrier (max To)
}

// incEdit records one adjacency mutation of an open move.
type incEdit struct {
	s     topo.Span
	added bool // true if the edit added the span, false if it removed one
}

// incUndo records one distance overwritten while a move was open.
type incUndo struct {
	at  int // index into dist
	old int64
}

// incMove is the state an open move's Revert restores: the log lengths and
// the running sum and dirty region at its Update.
type incMove struct {
	edits, undo int
	upper       int64
	r           dirtyRegion
}

// undoPresize caps the undo log Reset presizes. One sync overwrites at most
// the n(n-1)/2 upper-triangle entries, so below the cap a move with one sync
// never grows the log; past it the log grows by append.
const undoPresize = 1 << 12

// NewIncremental returns an evaluator for the given edge-cost model. Call
// Reset before the first query; buffers grow to the largest row seen.
func NewIncremental(p Params) *Incremental {
	inc := &Incremental{p: p}
	inc.moves = inc.movesBuf[:0]
	return inc
}

// Params returns the edge-cost model the evaluator scores with.
func (inc *Incremental) Params() Params { return inc.p }

// N returns the router count of the current row (0 before the first Reset).
func (inc *Incremental) N() int { return inc.n }

// Reset adopts the row as the new current state: it rebuilds the adjacency,
// recomputes the full distance matrix and discards any open moves. It panics
// if the edge-cost model fails Params.Check for the row.
func (inc *Incremental) Reset(row topo.Row) {
	n := row.N
	if err := inc.p.Check(n); err != nil {
		panic(err)
	}
	inc.n = n
	// Open moves are discarded first, so the sweeps below log nothing.
	inc.edits, inc.applied = inc.edits[:0], 0
	inc.undo = inc.undo[:0]
	inc.moves = inc.moves[:0]
	if want := min(n*(n-1)/2, undoPresize); cap(inc.undo) < want {
		inc.undo = make([]incUndo, 0, want)
	}
	if len(inc.exRight) < n {
		inc.exRight = append(inc.exRight, make([][]int, n-len(inc.exRight))...)
		inc.exLeft = append(inc.exLeft, make([][]int, n-len(inc.exLeft))...)
	}
	for v := 0; v < n; v++ {
		inc.exRight[v] = inc.exRight[v][:0]
		inc.exLeft[v] = inc.exLeft[v][:0]
	}
	for _, s := range row.Express {
		inc.exRight[s.To] = append(inc.exRight[s.To], s.From)
		inc.exLeft[s.From] = append(inc.exLeft[s.From], s.To)
	}
	if len(inc.cost) < n {
		inc.cost = make([]int64, n)
		for d := range inc.cost {
			inc.cost[d] = int64(inc.p.EdgeCost(d)) // exact: Check passed
		}
	}
	if len(inc.dist) < n*n {
		inc.dist = make([]int64, n*n)
	}
	for i := 0; i < n; i++ {
		inc.dist[i*n+i] = 0
		end := inc.sweepRight(i, i+1, n)
		if relaxed != nil {
			relaxed.Add(int64(max(end-(i+1), 0)))
		}
	}
	// The sweeps only patch entries that differ from the previous row's, so
	// the running sum is rebuilt here rather than tracked through them.
	inc.upper = 0
	for i := 0; i < n; i++ {
		for _, d := range inc.dist[i*n+i+1 : i*n+n] {
			inc.upper += d
		}
	}
	inc.r.dirty = false
}

// Update opens a move that removes each span in removed (which must be
// present, counting multiplicity) and then adds each span in added
// (duplicates allowed, matching how connection matrices decode). The move
// stays open until Revert undoes it or Commit keeps it; open moves close
// strictly last-in-first-out. Spans outside the row panic here; the edits
// reach the adjacency only at the next query, nested Update or outermost
// Commit, and a removed span that is absent panics then, or at the Revert
// that drops it unapplied.
func (inc *Incremental) Update(removed, added []topo.Span) {
	if inc.applied < len(inc.edits) {
		inc.apply() // an enclosing move's edits enter the adjacency before this one opens
	}
	inc.moves = append(inc.moves, incMove{edits: len(inc.edits), undo: len(inc.undo), upper: inc.upper, r: inc.r})
	for _, s := range removed {
		inc.check(s)
		inc.edits = append(inc.edits, incEdit{s: s, added: false})
	}
	for _, s := range added {
		inc.check(s)
		inc.edits = append(inc.edits, incEdit{s: s, added: true})
	}
}

// Revert undoes the most recent open move: it takes back those of the move's
// adjacency edits already applied and writes back, newest first, every
// distance a sync overwrote since its Update, so the matrix, the running sum
// and the pending dirty region are exactly those Update found — or, when a
// sync inside the move first synced the dirty state Update found, that state
// synced. Nothing is re-swept.
func (inc *Incremental) Revert() {
	m := inc.popMove("Revert")
	inc.checkRemovals(max(inc.applied, m.edits))
	for k := inc.applied - 1; k >= m.edits; k-- {
		if e := inc.edits[k]; e.added {
			inc.remove(e.s)
		} else {
			inc.add(e.s)
		}
	}
	for k := len(inc.undo) - 1; k >= m.undo; k-- {
		inc.dist[inc.undo[k].at] = inc.undo[k].old
	}
	inc.edits, inc.applied = inc.edits[:m.edits], m.edits
	inc.undo = inc.undo[:m.undo]
	inc.upper, inc.r = m.upper, m.r
}

// Commit accepts the most recent open move. A move committed inside an
// enclosing one joins it: its edits and overwrites stay logged, and a later
// Revert of the enclosing move undoes both. Once the outermost move is
// committed the logs are dropped.
func (inc *Incremental) Commit() {
	inc.popMove("Commit")
	if len(inc.moves) == 0 {
		inc.apply()
		inc.edits, inc.applied = inc.edits[:0], 0
		inc.undo = inc.undo[:0]
	}
}

// checkRemovals panics if a removal logged from edit from on, none of them
// applied, names a span the adjacency does not hold (counting multiplicity):
// the check a Revert makes before it drops edits that never reached the
// adjacency.
func (inc *Incremental) checkRemovals(from int) {
	for k, e := range inc.edits[from:] {
		if e.added {
			continue
		}
		n := 0
		for _, to := range inc.exLeft[e.s.From] {
			if to == e.s.To {
				n++
			}
		}
		for _, prev := range inc.edits[from : from+k] {
			if prev.s == e.s {
				if prev.added {
					n++
				} else {
					n--
				}
			}
		}
		if n <= 0 {
			panic(fmt.Sprintf("route: Incremental removal of absent span %v", e.s))
		}
	}
}

// apply brings the adjacency up to the edit log, widening the dirty region
// over every span it changes.
func (inc *Incremental) apply() {
	for _, e := range inc.edits[inc.applied:] {
		if e.added {
			inc.add(e.s)
		} else {
			inc.remove(e.s)
		}
		inc.markDirty(e.s)
	}
	inc.applied = len(inc.edits)
}

func (inc *Incremental) popMove(op string) incMove {
	if len(inc.moves) == 0 {
		panic("route: Incremental." + op + " without a matching Update")
	}
	m := inc.moves[len(inc.moves)-1]
	inc.moves = inc.moves[:len(inc.moves)-1]
	return m
}

func (inc *Incremental) add(s topo.Span) {
	inc.exRight[s.To] = append(inc.exRight[s.To], s.From)
	inc.exLeft[s.From] = append(inc.exLeft[s.From], s.To)
}

func (inc *Incremental) remove(s topo.Span) {
	if !cutEdge(inc.exRight, s.To, s.From) || !cutEdge(inc.exLeft, s.From, s.To) {
		panic(fmt.Sprintf("route: Incremental removal of absent span %v", s))
	}
}

// cutEdge removes one instance of value from lists[at]; edge order within a
// list is irrelevant to the min-based sweeps, so the last entry fills the gap.
func cutEdge(lists [][]int, at, value int) bool {
	l := lists[at]
	for k, v := range l {
		if v == value {
			l[k] = l[len(l)-1]
			lists[at] = l[:len(l)-1]
			return true
		}
	}
	return false
}

func (inc *Incremental) check(s topo.Span) {
	if !s.Valid(inc.n) {
		panic(fmt.Sprintf("route: invalid express span %v on row of %d", s, inc.n))
	}
}

// markDirty widens the pending dirty region to cover a changed span. Adding
// and removing dirty the same region: both invalidate exactly the distances
// whose shortest paths could cross the span.
func (inc *Incremental) markDirty(s topo.Span) {
	r := &inc.r
	if !r.dirty {
		*r = dirtyRegion{dirty: true, srcMax: s.From, from: s.To, to: s.To}
		return
	}
	r.srcMax = max(r.srcMax, s.From)
	r.from = min(r.from, s.To)
	r.to = max(r.to, s.To)
}

// sync applies the pending edits and brings every stale distance row
// segment up to date with the adjacency.
//
// When the innermost open move has none of its edits applied yet and was
// opened on a dirty state (a move kept without a query, such as an annealer
// memo hit), that state is synced first, logged to the enclosing moves
// only, and becomes the state the move's Revert restores; then the move's
// own spans are applied and synced. Syncing the union in one sweep would log
// the older region's repairs to the move, and a Revert would throw them away
// for the next sync to redo.
func (inc *Incremental) sync() {
	if inc.applied < len(inc.edits) {
		k := len(inc.moves) - 1 // pending edits belong to an open move
		if m := &inc.moves[k]; inc.r.dirty && inc.applied == m.edits {
			inc.moves = inc.moves[:k]
			inc.sweepDirty()
			inc.moves = inc.moves[:k+1]
			m.undo, m.upper, m.r = len(inc.undo), inc.upper, inc.r
		}
		inc.apply()
	}
	if inc.r.dirty {
		inc.sweepDirty()
	}
}

// sweepDirty re-sweeps the pending dirty region and marks the state clean.
func (inc *Incremental) sweepDirty() {
	for i := 0; i <= inc.r.srcMax; i++ {
		end := inc.sweepRight(i, inc.r.from, inc.r.to)
		if relaxed != nil {
			relaxed.Add(int64(max(end-max(inc.r.from, i+1), 0)))
		}
	}
	inc.r.dirty = false
}

// sweepRight recomputes source i's rightward distances from position `from`
// (clamped past the source) to the row end, with Scratch.distRow's
// relaxation: the minimum is over the same candidate set with the same
// per-edge cost values (cost[d] is the integer EdgeCost(d) holds exactly),
// and min is order-independent, so every stored distance equals a full
// evaluation's. While a move is open, each overwritten distance is logged
// for Revert. The local link from v-1 always exists, seeding the
// minimum without Scratch's reachability guard. Positions left of `from` are
// unaffected by pending spans, so their stored values feed the resumed
// recurrence unchanged. The sweep stops at the first position past `barrier`
// (the rightmost changed-span endpoint) that no changed position can still
// reach — from there on every position reproduces its stored value. It
// returns the position after the last one relaxed.
func (inc *Incremental) sweepRight(i, from, barrier int) int {
	n := inc.n
	row := inc.dist[i*n : i*n+n]
	cost := inc.cost
	// stop is the reconvergence frontier: the sweep may halt at position v
	// once v >= stop, because then every changed position u < v reaches at
	// most position stop <= v directly (locally to u+1, by express to the
	// targets in exLeft[u], which lists u's outgoing rightward spans), so no
	// position beyond v can change. It starts at the barrier — every changed
	// span lands at or before it — and advances as changes are discovered.
	stop := barrier
	for v := max(from, i+1); v < n; v++ {
		best := row[v-1] + cost[1]
		for _, u := range inc.exRight[v] {
			if u < i {
				continue
			}
			if c := row[u] + cost[v-u]; c < best {
				best = c
			}
		}
		if best != row[v] {
			if len(inc.moves) > 0 {
				inc.undo = append(inc.undo, incUndo{at: i*n + v, old: row[v]})
			}
			inc.upper += best - row[v]
			row[v] = best
			if v+1 > stop {
				stop = v + 1
			}
			for _, w := range inc.exLeft[v] {
				if w > stop {
					stop = w
				}
			}
		}
		if v >= stop {
			return v + 1
		}
	}
	return n
}

// MeanMax returns the mean and maximum directional pair distance of the
// current state, bit-identical to Scratch.MeanMax on the equivalent row: the
// mean as Mean computes it, the maximum from the upper triangle, which holds
// every value. It is reached only through model.IncObjective's
// worst-case-weighted score (Config.WorstWeight > 0): the /v1/solve requests
// with worstWeight > 0 that perfbench's solve-cold workload sends.
func (inc *Incremental) MeanMax() (mean, maxDist float64) {
	inc.sync()
	n := inc.n
	var m int64
	for i := 0; i < n; i++ {
		for _, d := range inc.dist[i*n+i+1 : i*n+n] {
			m = max(m, d)
		}
	}
	return inc.mean(), float64(m)
}

// Mean returns the mean directional pair distance of the current state,
// bit-identical to Scratch.MeanDist on the equivalent row.
func (inc *Incremental) Mean() float64 {
	inc.sync()
	return inc.mean()
}

// mean is O(1): Scratch's ordered sum of the n² exact integers equals their
// true sum, which is twice the upper triangle and below 2^53, so converting
// it to float64 and dividing by the same n² gives the same bits.
func (inc *Incremental) mean() float64 {
	return float64(2*inc.upper) / float64(inc.n*inc.n)
}

// WeightedMean returns the w-weighted mean pair distance of the current
// state with Scratch.WeightedMean's exact accumulation order and nil/all-zero
// fallback contract. The lower triangle is read transposed, in the same
// order, so the sums see the same values.
func (inc *Incremental) WeightedMean(w [][]float64) float64 {
	inc.sync()
	n := inc.n
	var sum, num, den float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := float64(inc.dist[i*n+j])
			if j < i {
				d = float64(inc.dist[j*n+i])
			}
			sum += d
			if w != nil {
				num += w[i][j] * d
				den += w[i][j]
			}
		}
	}
	if w == nil || den == 0 {
		return sum / float64(n*n)
	}
	return num / den
}
