package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"explink/internal/anneal"
	"explink/internal/model"
	"explink/internal/power"
	"explink/internal/stats"
	"explink/internal/topo"
)

// Multi-objective placement search: SolvePareto runs the archive-based
// vector annealer (anneal.MinimizePareto) over {latency, power, wiring}
// instead of collapsing everything into one scalar, and returns the
// non-dominated frontier across link limits. A link limit's frontier is a
// line problem like any other (see solve); the scalar SolveRow is its k=1
// case, with the same D&C start and the same annealer.

// ParetoSA labels frontier solves in results and cache keys. It is a
// distinct Algorithm so frontier artifacts can never alias scalar ones.
const ParetoSA Algorithm = "ParetoSA"

// Objective names one frontier dimension. Values are wire-stable: they
// appear in API requests, cache-key preimages and report tables.
type Objective string

const (
	// ObjLatency is the paper's L_avg in cycles: 2·row head mean plus the
	// mix-average serialization at the C-dependent link width.
	ObjLatency Objective = "latency"
	// ObjPower is the sim-free placement power in watts: component static
	// power plus wiring leakage (power.PlacementCost.TotalPower).
	ObjPower Objective = "power"
	// ObjWiring is the wire demand in bit-units (power.PlacementCost.
	// WireBitUnits) — the floorplanner's cost, independent of leakage
	// coefficients.
	ObjWiring Objective = "wiring"
)

// AllObjectives is the canonical dimension order; an empty objective list
// means all of these.
var AllObjectives = []Objective{ObjLatency, ObjPower, ObjWiring}

// ParseObjectives canonicalizes an objective-name list: empty input means
// AllObjectives; unknown names and duplicates are errors. The returned slice
// is always a fresh copy in caller order.
func ParseObjectives(names []string) ([]Objective, error) {
	if len(names) == 0 {
		return append([]Objective(nil), AllObjectives...), nil
	}
	out := make([]Objective, 0, len(names))
	seen := make(map[Objective]bool, len(names))
	for _, name := range names {
		o := Objective(strings.TrimSpace(name))
		switch o {
		case ObjLatency, ObjPower, ObjWiring:
		default:
			return nil, fmt.Errorf("core: unknown objective %q (have latency, power, wiring)", name)
		}
		if seen[o] {
			return nil, fmt.Errorf("core: duplicate objective %q", o)
		}
		seen[o] = true
		out = append(out, o)
	}
	return out, nil
}

// ParetoSpec configures a frontier solve.
type ParetoSpec struct {
	// Objectives are the frontier dimensions in order; empty means
	// AllObjectives.
	Objectives []Objective
	// ArchiveCap bounds the per-C non-dominated archive; <= 0 means
	// anneal.DefaultArchiveCap.
	ArchiveCap int
	// Power supplies the sim-free cost coefficients; the zero value means
	// power.DefaultModel().
	Power power.Model
}

// resolved returns the spec with every default applied; all cache keys and
// solves derive from the resolved form.
func (sp ParetoSpec) resolved() (ParetoSpec, error) {
	out := sp
	var err error
	if out.Objectives, err = ParseObjectives(objectiveNames(sp.Objectives)); err != nil {
		return ParetoSpec{}, err
	}
	if out.ArchiveCap <= 0 {
		out.ArchiveCap = anneal.DefaultArchiveCap
	}
	if out.Power == (power.Model{}) {
		out.Power = power.DefaultModel()
	}
	return out, nil
}

func objectiveNames(objs []Objective) []string {
	if len(objs) == 0 {
		return nil
	}
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = string(o)
	}
	return out
}

// search returns the annealer's objective and options for one link limit's
// frontier from start state m. The acceptance scales come from m's vector;
// the annealer's own Init fully resets the objective, so one instance serves
// both.
func (sp *ParetoSpec) search(cfg model.Config, m *topo.ConnMatrix, width int) (anneal.VectorMoveObjective, anneal.ParetoOpts) {
	vo := newParetoVector(sp.Objectives, cfg.Params, sp.Power, width, model.Serialization(cfg.Mix, width))
	init := make([]float64, vo.K())
	vo.Init(m, init)
	return vo, anneal.ParetoOpts{ArchiveCap: sp.ArchiveCap, Scales: paretoScales(init)}
}

// FrontierEntry is one non-dominated placement.
type FrontierEntry struct {
	C    int
	Row  topo.Row
	Eval model.Eval          // latency breakdown at this C's width
	Cost power.PlacementCost // sim-free power/wiring breakdown
	Objs []float64           // objective vector, Frontier.Objectives order
}

// Frontier is the outcome of a Pareto solve: mutually non-dominated entries
// in deterministic order — lexicographic by objective vector, then by C,
// then by placement — deduped, with every Objs recomputed canonically from
// the entry's deduped row.
type Frontier struct {
	Objectives []Objective
	Entries    []FrontierEntry
	Evals      int64 // total placement evaluations across all C
}

// paretoVector adapts the objective dimensions to the annealer's
// VectorMoveObjective protocol. The latency dimension rides on the
// incremental router (model.IncObjective); power and wiring decode the
// mirror matrix and price it with the closed-form evaluator — sim-free, so
// every dimension is cheap inside the move loop. Not safe for concurrent
// use; one per solve.
type paretoVector struct {
	dims    []Objective
	inc     *model.IncObjective // nil when latency is not a dimension
	m       *topo.ConnMatrix    // private mirror for the power dimensions
	pending int
	width   int
	ser     float64 // serialization latency, constant at fixed C
	pm      power.Model
	priced  bool // a power or wiring dimension needs the placement cost
}

func newParetoVector(dims []Objective, p model.Params, pm power.Model, width int, ser float64) *paretoVector {
	v := &paretoVector{dims: dims, width: width, ser: ser, pm: pm}
	for _, d := range dims {
		if d == ObjLatency {
			v.inc = model.NewIncObjective(p)
		} else {
			v.priced = true
		}
	}
	return v
}

func (v *paretoVector) K() int { return len(v.dims) }

func (v *paretoVector) Init(m *topo.ConnMatrix, dst []float64) {
	v.m = m.Clone()
	var rowMean [1]float64
	if v.inc != nil {
		v.inc.Init(m, rowMean[:])
	}
	v.fill(dst, rowMean[0])
}

func (v *paretoVector) Flip(bit int) {
	if v.inc != nil {
		v.inc.Flip(bit)
	}
	v.m.FlipAt(bit)
	v.pending = bit
}

func (v *paretoVector) Eval(dst []float64) {
	var rowMean [1]float64
	if v.inc != nil {
		v.inc.Eval(rowMean[:])
	}
	v.fill(dst, rowMean[0])
}

func (v *paretoVector) Commit() {
	if v.inc != nil {
		v.inc.Commit()
	}
}

func (v *paretoVector) Revert() {
	if v.inc != nil {
		v.inc.Revert()
	}
	v.m.FlipAt(v.pending)
}

// fill writes the objective vector of the tracked state, pricing the
// placement once, and only when a power or wiring dimension needs it.
func (v *paretoVector) fill(dst []float64, rowMean float64) {
	var cost power.PlacementCost
	if v.priced {
		cost = v.pm.PlacementCost(v.m.Row(), v.width)
	}
	objsInto(dst, v.dims, 2*rowMean+v.ser, cost)
}

// objsInto writes the objective vector of a placement with latency L_avg
// and the given cost, in dims order.
func objsInto(dst []float64, dims []Objective, latency float64, cost power.PlacementCost) {
	for i, d := range dims {
		switch d {
		case ObjLatency:
			dst[i] = latency
		case ObjPower:
			dst[i] = cost.TotalPower()
		default:
			dst[i] = cost.WireBitUnits
		}
	}
}

// objsFor recomputes the canonical objective vector of a finished entry from
// its deduped row — the same values the move loop saw (duplicate spans never
// change any dimension), but derived from the durable representation.
func objsFor(dims []Objective, ev model.Eval, cost power.PlacementCost) []float64 {
	out := make([]float64, len(dims))
	objsInto(out, dims, ev.Total, cost)
	return out
}

// paretoScales derives the per-dimension acceptance scales from the initial
// state: each dimension is normalized by the ratio of its initial value to
// dimension 0's, so one temperature schedule (tuned in cycles of ΔL) spans
// units from watts to bit-units. Deterministic — a pure function of the
// initial vector — and irrelevant for k=1 (all scales 1 when the ratio
// guard trips or dims match).
func paretoScales(init []float64) []float64 {
	scales := make([]float64, len(init))
	for d := range scales {
		scales[d] = 1
		if init[0] > 0 && init[d] > 0 {
			scales[d] = init[d] / init[0]
		}
	}
	return scales
}

// SolvePareto runs the multi-objective placement search. c > 0 solves one
// link limit; c <= 0 sweeps every feasible limit (the Optimize analogue) on
// the solver's worker pool and merges the per-C archives into one frontier.
// With a Store attached every frontier entry is cached individually under a
// frontier-salted key (see solve), so a warm re-run solves nothing.
func (s *Solver) SolvePareto(ctx context.Context, c int, spec ParetoSpec) (Frontier, error) {
	rspec, err := spec.resolved()
	if err != nil {
		return Frontier{}, err
	}
	if err := s.Cfg.Validate(); err != nil {
		return Frontier{}, err
	}
	problem := func(c int) *lineProblem {
		return &lineProblem{kind: "pareto", c: c, algo: ParetoSA, spec: &rspec}
	}
	if c > 0 {
		entries, evals, err := s.solve(ctx, problem(c), nil)
		if err != nil {
			return Frontier{}, err
		}
		return finishFrontier(rspec.Objectives, entries, evals), nil
	}

	limits, err := s.limits()
	if err != nil {
		return Frontier{}, err
	}
	perC := make([][]FrontierEntry, len(limits))
	perEvals := make([]int64, len(limits))
	err = forEachIndex(ctx, len(limits), s.Workers, limitLabel(limits), func(i int) error {
		var err error
		perC[i], perEvals[i], err = s.solve(ctx, problem(limits[i]), nil)
		return err
	})
	if err != nil {
		return Frontier{}, err
	}
	var merged []FrontierEntry
	var evals int64
	for i := range perC {
		merged = append(merged, perC[i]...)
		evals += perEvals[i]
	}
	return finishFrontier(rspec.Objectives, merged, evals), nil
}

// compareEntries orders frontier entries lexicographically by objective
// vector, then by C, then by placement.
func compareEntries(a, b FrontierEntry) int {
	if cmp := stats.CompareLex(a.Objs, b.Objs); cmp != 0 {
		return cmp
	}
	if a.C != b.C {
		return a.C - b.C
	}
	return strings.Compare(a.Row.String(), b.Row.String())
}

// finishFrontier filters the merged entries to the non-dominated set, sorts
// them deterministically and drops exact duplicates.
func finishFrontier(dims []Objective, entries []FrontierEntry, evals int64) Frontier {
	points := make([][]float64, len(entries))
	for i := range entries {
		points[i] = entries[i].Objs
	}
	kept := make([]FrontierEntry, 0, len(entries))
	for _, i := range stats.ParetoFront(points) {
		kept = append(kept, entries[i])
	}
	slices.SortFunc(kept, compareEntries)
	out := kept[:0]
	for i, e := range kept {
		if i > 0 {
			prev := out[len(out)-1]
			if prev.C == e.C && stats.CompareLex(prev.Objs, e.Objs) == 0 && prev.Row.Equal(e.Row) {
				continue
			}
		}
		out = append(out, e)
	}
	return Frontier{Objectives: dims, Entries: out, Evals: evals}
}
