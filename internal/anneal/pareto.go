package anneal

import (
	"cmp"
	"math"
	"slices"

	"explink/internal/stats"
	"explink/internal/topo"
)

// archEntry is an archive slot; seq is the insertion sequence number, the
// deterministic tie-break everywhere order matters.
type archEntry struct {
	m    *topo.ConnMatrix
	objs []float64
	seq  int
}

// archive is the bounded set of mutually non-dominated states behind
// MinimizePareto. Entries dropped on domination or pruning park in free, so
// later insertions copy into their matrix and vector buffers instead of
// cloning; at k=1 every improvement recycles the entry it replaces.
type archive struct {
	entries []archEntry
	free    []archEntry
	cap     int
	seq     int
	dist    []float64 // crowding scratch
	keys    []crowdKey
}

// newArchive returns an empty archive holding at most archCap entries after
// each prune. Entries are presized for the default cap plus the one slot the
// insertion that triggers a prune takes, and grow by append beyond it, so a
// huge cap costs nothing until the search actually fills it.
func newArchive(archCap int) *archive {
	return &archive{entries: make([]archEntry, 0, min(archCap, DefaultArchiveCap)+1), cap: archCap}
}

// insert adds state (cur, objs) unless an existing entry weakly dominates it
// (equal vectors included — the archive never holds duplicate objective
// vectors). On insertion, entries the candidate dominates are dropped and
// the matrix and vector are copied, so the archive owns its state. Reports
// whether the archive changed.
func (a *archive) insert(cur *topo.ConnMatrix, objs []float64) bool {
	for _, e := range a.entries {
		if stats.WeaklyDominates(e.objs, objs) {
			return false
		}
	}
	keep := a.entries[:0]
	for _, e := range a.entries {
		if stats.Dominates(objs, e.objs) {
			a.free = append(a.free, e)
			continue
		}
		keep = append(keep, e)
	}
	var e archEntry
	if n := len(a.free); n > 0 {
		e = a.free[n-1]
		a.free = a.free[:n-1]
		e.m.Copy(cur)
		copy(e.objs, objs)
	} else {
		e = archEntry{m: cur.Clone(), objs: slices.Clone(objs)}
	}
	a.seq++
	e.seq = a.seq
	a.entries = append(keep, e)
	return true
}

// prune evicts most-crowded entries (smallest NSGA-II crowding distance;
// ties evict the newest entry) until the archive fits its cap, and returns
// how many it evicted. Extreme entries per dimension carry infinite
// distance, so the frontier's endpoints always survive.
func (a *archive) prune() int {
	pruned := 0
	for len(a.entries) > a.cap {
		d := a.crowding()
		victim := 0
		for i := 1; i < len(a.entries); i++ {
			if d[i] < d[victim] || (d[i] == d[victim] && a.entries[i].seq > a.entries[victim].seq) {
				victim = i
			}
		}
		a.free = append(a.free, a.entries[victim])
		a.entries = slices.Delete(a.entries, victim, victim+1)
		pruned++
	}
	return pruned
}

// crowding returns the NSGA-II crowding distance of every entry: per
// dimension, entries are sorted by value (insertion order breaks ties) and
// each interior entry accumulates the normalized gap between its neighbors;
// the two boundary entries get +Inf. The result aliases archive scratch.
func (a *archive) crowding() []float64 {
	n := len(a.entries)
	a.dist = slices.Grow(a.dist[:0], n)[:n]
	d := a.dist
	clear(d)
	if n <= 2 {
		for i := range d {
			d[i] = math.Inf(1)
		}
		return d
	}
	for dim := range a.entries[0].objs {
		a.keys = a.keys[:0]
		for i, e := range a.entries {
			a.keys = append(a.keys, crowdKey{v: e.objs[dim], seq: e.seq, i: i})
		}
		slices.SortFunc(a.keys, compareCrowdKeys)
		keys := a.keys
		d[keys[0].i] = math.Inf(1)
		d[keys[n-1].i] = math.Inf(1)
		if span := keys[n-1].v - keys[0].v; span > 0 {
			for i := 1; i < n-1; i++ {
				d[keys[i].i] += (keys[i+1].v - keys[i-1].v) / span
			}
		}
	}
	return d
}

// crowdKey is one entry's value in the dimension being sorted, with its
// insertion sequence (the tie-break) and its archive index.
type crowdKey struct {
	v      float64
	seq, i int
}

func compareCrowdKeys(x, y crowdKey) int {
	if c := cmp.Compare(x.v, y.v); c != 0 {
		return c
	}
	return x.seq - y.seq
}

// best returns the archive's minimum in dimension 0, the value the
// best-objective gauge reports.
func (a *archive) best() float64 {
	best := math.Inf(1)
	for _, e := range a.entries {
		best = min(best, e.objs[0])
	}
	return best
}

// finish materializes the lexicographically sorted entry list and flushes
// observability.
func (a *archive) finish(res *ParetoResult, track *obsTracker, temp float64) {
	slices.SortFunc(a.entries, func(x, y archEntry) int { return stats.CompareLex(x.objs, y.objs) })
	res.Entries = make([]ParetoEntry, len(a.entries))
	for i, e := range a.entries {
		res.Entries[i] = ParetoEntry{Matrix: e.m, Row: e.m.Row(), Objs: e.objs}
	}
	track.done(res, a, temp)
}
