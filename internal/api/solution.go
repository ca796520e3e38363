package api

import (
	"encoding/json"
	"io"
	"math"
	"slices"

	"explink/internal/core"
	"explink/internal/model"
	"explink/internal/topo"
)

// Solution is the wire form of one placement solution. Its field set and
// JSON tags are the historical `explink -json` schema, now shared by the CLI
// and the daemon so the two emit byte-identical documents for the same solve.
type Solution struct {
	C       int         `json:"c"`
	Width   int         `json:"widthBits"`
	Head    float64     `json:"headLatency"`
	Ser     float64     `json:"serializationLatency"`
	Total   float64     `json:"totalLatency"`
	Evals   int64       `json:"evaluations"`
	Express []topo.Span `json:"expressLinks"`
}

// SolutionOf converts a solver result to its wire form (express links in
// canonical order, exactly what the CLI has always printed). A row already
// in canonical order — every solver and store result — is shared, not
// copied, so the Solution must be treated as read-only.
func SolutionOf(s core.RowSolution) Solution {
	express := s.Row.Express
	if !slices.IsSortedFunc(express, topo.CompareSpans) {
		express = s.Row.Canonical().Express
	}
	return Solution{
		C: s.C, Width: s.Eval.Width, Head: s.Eval.Head, Ser: s.Eval.Ser,
		Total: s.Eval.Total, Evals: s.Evals, Express: express,
	}
}

// SolveResponse is the result of one SolveRequest: the best solution plus
// every per-C solution of the sweep (a single-C solve lists just itself).
type SolveResponse struct {
	Best Solution   `json:"best"`
	All  []Solution `json:"all"`
}

// NewSolveResponse assembles the wire response from solver results.
func NewSolveResponse(best core.RowSolution, all []core.RowSolution) SolveResponse {
	out := SolveResponse{Best: SolutionOf(best)}
	if len(all) > 0 {
		out.All = make([]Solution, len(all))
		for i, s := range all {
			out.All[i] = SolutionOf(s)
		}
	}
	return out
}

// Encode writes the response as indented JSON with a trailing newline — the
// exact bytes of `explink -json`, which is what makes daemon solve responses
// byte-comparable against CLI output. The bytes go out in one Write, and a
// response that cannot be encoded (a non-finite float) writes nothing.
func (r SolveResponse) Encode(w io.Writer) error {
	buf, err := r.appendJSON(make([]byte, 0, r.jsonSize()))
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// EvalRequest asks for the latency of a given placement without solving:
// the analytic row evaluation (uniform replication of the express row), or —
// when Weights is present — the traffic-weighted evaluation of Section 5.6.4
// against a node-level traffic matrix. This is the oracle shape an external
// engine drives over stdio: propose a placement, get cycles back.
type EvalRequest struct {
	// N is the network size (n x n routers).
	N int `json:"n"`
	// C is the link limit the placement claims; widths derive from it.
	C int `json:"c"`
	// Express lists the express spans of the row placement (empty = mesh).
	Express []topo.Span `json:"express,omitempty"`
	// BaseWidth is the C=1 link width in bits; 0 means the paper's 256.
	BaseWidth int `json:"baseWidth,omitempty"`
	// Weights, when present, is the node-level traffic matrix γ (n²×n²,
	// gamma[src][dst] >= 0): the evaluation becomes the γ-weighted mean head
	// latency over the uniform 2D expansion of the row.
	Weights [][]float64 `json:"weights,omitempty"`
}

// Normalize fills defaulted fields in place.
func (r *EvalRequest) Normalize() { orDefault(&r.BaseWidth, 256) }

// Validate rejects malformed requests with runctl.ErrConfig-typed errors.
// Call Normalize first; validation treats the request as complete.
func (r *EvalRequest) Validate() error {
	if r.N < 2 || r.N > MaxN {
		return configErr("network size n=%d out of [2,%d]", r.N, MaxN)
	}
	if r.C < 1 {
		return configErr("link limit c=%d must be positive", r.C)
	}
	if r.BaseWidth < 1 {
		return configErr("base width %d bits must be positive", r.BaseWidth)
	}
	row := topo.Row{N: r.N, Express: r.Express}
	if err := row.Validate(r.C); err != nil {
		return configErr("invalid placement: %v", err)
	}
	if r.Weights != nil {
		nn := r.N * r.N
		if len(r.Weights) != nn {
			return configErr("traffic matrix has %d rows, want %d", len(r.Weights), nn)
		}
		var total float64
		for i, wr := range r.Weights {
			if len(wr) != nn {
				return configErr("traffic matrix row %d has %d columns, want %d", i, len(wr), nn)
			}
			for j, v := range wr {
				if v < 0 {
					return configErr("negative traffic %g at (%d,%d)", v, i, j)
				}
				total += v
			}
		}
		// The weighted mean divides by the total, so a total that overflows
		// would turn every latency into NaN.
		if math.IsInf(total, 0) || math.IsNaN(total) {
			return configErr("traffic matrix total weight %g is not finite", total)
		}
	}
	return nil
}

// EvalResponse reports the evaluated latency of one placement, using the
// Solution latency vocabulary (head + serialization = total, in cycles).
type EvalResponse struct {
	C        int     `json:"c"`
	Width    int     `json:"widthBits"`
	Head     float64 `json:"headLatency"`
	Ser      float64 `json:"serializationLatency"`
	Total    float64 `json:"totalLatency"`
	Weighted bool    `json:"weighted,omitempty"`
}

// Eval runs the evaluation described by the (normalized, validated) request.
func (r *EvalRequest) Eval() (EvalResponse, error) {
	cfg := model.DefaultConfig(r.N)
	cfg.BW.BaseWidth = r.BaseWidth
	if err := cfg.Validate(); err != nil {
		return EvalResponse{}, configErr("%v", err)
	}
	row := topo.Row{N: r.N, Express: r.Express}
	var ev model.Eval
	var err error
	if r.Weights == nil {
		ev, err = cfg.EvalRow(row, r.C)
	} else {
		t := topo.Uniform("eval", r.N, row)
		ev, err = core.WeightedLatency(cfg, t, r.C, r.Weights)
	}
	if err != nil {
		return EvalResponse{}, configErr("%v", err)
	}
	// A finite total can still overflow the weighted sum of latencies.
	if math.IsInf(ev.Total, 0) || math.IsNaN(ev.Total) {
		return EvalResponse{}, configErr("traffic weights too large: latency %g is not finite", ev.Total)
	}
	return EvalResponse{
		C: ev.C, Width: ev.Width, Head: ev.Head, Ser: ev.Ser, Total: ev.Total,
		Weighted: r.Weights != nil,
	}, nil
}

// Encode writes the response as indented JSON with a trailing newline,
// matching the SolveResponse framing.
func (r EvalResponse) Encode(w io.Writer) error { return encodeIndented(w, r) }

// encodeIndented writes v with json.Encoder framing: two-space indent and a
// trailing newline, failing on non-finite floats.
func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
