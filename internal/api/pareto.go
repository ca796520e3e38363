package api

import (
	"context"
	"io"

	"explink/internal/core"
	"explink/internal/topo"
)

// ParetoRequest asks for a multi-objective placement frontier: the vector
// counterpart of SolveRequest, served at /v1/pareto and by `explink -pareto`.
// Zero values select the same defaults as the explink flags.
type ParetoRequest struct {
	// N is the network size (n x n routers).
	N int `json:"n"`
	// C is the link limit; 0 sweeps every feasible value and merges the
	// per-C archives into one frontier.
	C int `json:"c,omitempty"`
	// Objectives lists the frontier dimensions in order ("latency", "power",
	// "wiring"); empty means all three in canonical order.
	Objectives []string `json:"objectives,omitempty"`
	// Seed is the random seed; 0 means the default seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// Moves overrides the SA move budget; 0 keeps the paper's schedule.
	Moves int `json:"moves,omitempty"`
	// BaseWidth is the link width in bits the bisection budget affords at
	// C=1; 0 means the paper's 256.
	BaseWidth int `json:"baseWidth,omitempty"`
	// ArchiveCap bounds the per-C non-dominated archive; 0 means the
	// annealer's default (32).
	ArchiveCap int `json:"archiveCap,omitempty"`
}

// Normalize fills defaulted fields in place, mirroring the explink flag
// defaults. The objective list is left as given — ordering is meaningful and
// core applies the all-dimensions default.
func (r *ParetoRequest) Normalize() {
	orDefault(&r.Seed, 1)
	orDefault(&r.BaseWidth, 256)
}

// Validate rejects malformed requests with runctl.ErrConfig-typed errors.
// Call Normalize first; validation treats the request as complete.
func (r *ParetoRequest) Validate() error {
	sr := r.solveRequest()
	if err := sr.Validate(); err != nil {
		return err
	}
	if _, err := r.Spec(); err != nil {
		return err
	}
	if r.ArchiveCap < 0 {
		return configErr("archive cap %d must be non-negative", r.ArchiveCap)
	}
	return nil
}

// solveRequest is the scalar request sharing r's network, seed and budget:
// it validates those knobs and builds the frontier's solver.
func (r *ParetoRequest) solveRequest() SolveRequest {
	return SolveRequest{
		N: r.N, C: r.C, Algo: string(core.DCSA),
		Seed: r.Seed, Moves: r.Moves, BaseWidth: r.BaseWidth,
	}
}

// Spec converts the request's frontier knobs to the core form.
func (r *ParetoRequest) Spec() (core.ParetoSpec, error) {
	objs, err := core.ParseObjectives(r.Objectives)
	if err != nil {
		return core.ParetoSpec{}, configErr("%v", err)
	}
	return core.ParetoSpec{Objectives: objs, ArchiveCap: r.ArchiveCap}, nil
}

// Solve runs the frontier solve described by the (normalized, validated)
// request — the single path shared by cmd/explink and the daemon, so their
// outputs are byte-comparable by construction.
func (r *ParetoRequest) Solve(ctx context.Context, store *core.PlacementStore) (core.Frontier, error) {
	sr := r.solveRequest()
	s, err := sr.Solver(store)
	if err != nil {
		return core.Frontier{}, err
	}
	spec, err := r.Spec()
	if err != nil {
		return core.Frontier{}, err
	}
	return s.SolvePareto(ctx, r.C, spec)
}

// ParetoPoint is the wire form of one frontier entry: the objective vector
// in response order plus the human-facing breakdown and the placement
// itself.
type ParetoPoint struct {
	C            int         `json:"c"`
	Width        int         `json:"widthBits"`
	Objectives   []float64   `json:"objectives"`
	TotalLatency float64     `json:"totalLatency"`
	PowerWatts   float64     `json:"powerWatts"`
	WireBitUnits float64     `json:"wireBitUnits"`
	Express      []topo.Span `json:"expressLinks"`
}

// ParetoResponse is the result of one ParetoRequest: the dimension names and
// the non-dominated points in the frontier's deterministic order.
type ParetoResponse struct {
	Objectives []string      `json:"objectives"`
	Points     []ParetoPoint `json:"points"`
	Evals      int64         `json:"evaluations"`
}

// NewParetoResponse assembles the wire response from a solved frontier.
func NewParetoResponse(f core.Frontier) ParetoResponse {
	out := ParetoResponse{Evals: f.Evals}
	for _, o := range f.Objectives {
		out.Objectives = append(out.Objectives, string(o))
	}
	for _, e := range f.Entries {
		out.Points = append(out.Points, ParetoPoint{
			C:            e.C,
			Width:        e.Eval.Width,
			Objectives:   e.Objs,
			TotalLatency: e.Eval.Total,
			PowerWatts:   e.Cost.TotalPower(),
			WireBitUnits: e.Cost.WireBitUnits,
			Express:      e.Row.Canonical().Express,
		})
	}
	return out
}

// Encode writes the response as indented JSON with a trailing newline,
// matching the SolveResponse framing — the daemon and `explink -pareto
// -json` emit these exact bytes.
func (r ParetoResponse) Encode(w io.Writer) error { return encodeIndented(w, r) }
