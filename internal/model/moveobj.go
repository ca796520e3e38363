package model

import (
	"explink/internal/route"
	"explink/internal/topo"
)

// IncObjective is the production objective of connection-matrix searches: a
// one-dimensional anneal.VectorMoveObjective on top of a route.Incremental,
// so a single-bit candidate re-routes only the sources whose shortest paths
// can cross the changed spans instead of the whole row.
//
// Values are bit-identical to RowMean on the decoded row and to re-routing
// the whole row from scratch, as the test oracle oracle.Scratch does,
// including the optional worst-case blend used by the core solver, computed
// as (1-w)·mean + w·max. Searches driven by an IncObjective therefore follow
// exactly the same trajectory as full-evaluation runs.
//
// An IncObjective owns routing state and is not safe for concurrent use;
// create one per goroutine (per SA run, per solver line).
type IncObjective struct {
	inc   *route.Incremental
	m     *topo.ConnMatrix // private mirror of the annealer's current state
	w     [][]float64      // traffic weights; nil scores the uniform mean
	worst float64          // worst-case blend weight in [0, 1]; 0 = mean only

	pending  int  // bit index of the open move, if any
	open     bool // strict Flip -> Commit/Revert protocol guard
	rem, add []topo.Span
}

// NewIncObjective returns an incremental objective for the given edge-cost
// model, scoring states by the uniform mean row head latency (RowMean).
func NewIncObjective(p Params) *IncObjective {
	return &IncObjective{inc: route.NewIncremental(p.Route())}
}

// WithWeights switches scoring to the traffic-weighted mean against w,
// Σ w[i][j]·L_D(i,j) / Σ w[i][j] (Section 5.6.4), falling back to the uniform
// mean when w is nil or all-zero. It returns the receiver for chaining.
func (o *IncObjective) WithWeights(w [][]float64) *IncObjective {
	o.w = w
	return o
}

// WithWorstBlend blends the worst-case pair latency into the score:
// (1-wgt)·mean + wgt·max, the core solver's WorstWeight extension. Values
// outside [0, 1] are clamped. Weighted scoring and the blend are mutually
// exclusive; the blend applies only to the uniform objective.
func (o *IncObjective) WithWorstBlend(wgt float64) *IncObjective {
	if wgt < 0 {
		wgt = 0
	}
	if wgt > 1 {
		wgt = 1
	}
	o.worst = wgt
	return o
}

// K reports one objective dimension.
func (o *IncObjective) K() int { return 1 }

// Init adopts the matrix as the current state (cloning it — the annealer owns
// the original) and writes its objective value to dst[0].
func (o *IncObjective) Init(m *topo.ConnMatrix, dst []float64) {
	o.m = m.Clone()
	o.inc.Reset(o.m.Row())
	o.open = false
	dst[0] = o.score()
}

// Flip applies the single-bit move FlipAt(bit): the mirror matrix computes
// which spans the flip removes and adds (at most two on one side, one on the
// other), and the incremental router's state is updated with just that delta.
func (o *IncObjective) Flip(bit int) {
	if o.open {
		panic("model: IncObjective.Flip with a move already open")
	}
	o.rem, o.add = o.m.DeltaAt(bit, o.rem[:0], o.add[:0])
	o.m.FlipAt(bit)
	o.inc.Update(o.rem, o.add)
	o.pending, o.open = bit, true
}

// Eval writes the objective value of the tracked state to dst[0], syncing
// only the dirty region accumulated since the last evaluation.
func (o *IncObjective) Eval(dst []float64) { dst[0] = o.score() }

// Commit accepts the pending move.
func (o *IncObjective) Commit() {
	if !o.open {
		panic("model: IncObjective.Commit without an open move")
	}
	o.inc.Commit()
	o.open = false
}

// Revert undoes the pending move.
func (o *IncObjective) Revert() {
	if !o.open {
		panic("model: IncObjective.Revert without an open move")
	}
	o.m.FlipAt(o.pending)
	o.inc.Revert()
	o.open = false
}

func (o *IncObjective) score() float64 {
	if o.w != nil {
		return o.inc.WeightedMean(o.w)
	}
	if o.worst == 0 {
		return o.inc.Mean()
	}
	mean, max := o.inc.MeanMax()
	return (1-o.worst)*mean + o.worst*max
}
