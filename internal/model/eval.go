package model

import (
	"fmt"
	"sync"

	"explink/internal/route"
	"explink/internal/topo"
)

// Config bundles everything needed to score a placement: network size,
// timing constants, packet mix and bisection budget.
type Config struct {
	N      int
	Params Params
	Mix    []PacketClass
	BW     Bandwidth
}

// DefaultConfig returns the paper's evaluation setup (Section 5.1) for an
// n x n network.
func DefaultConfig(n int) Config {
	return Config{
		N:      n,
		Params: DefaultParams(),
		Mix:    DefaultMix(),
		BW:     DefaultBandwidth(),
	}
}

// Validate checks the configuration for consistency.
func (cfg Config) Validate() error {
	if cfg.N < 2 {
		return fmt.Errorf("model: network size %d too small", cfg.N)
	}
	if err := cfg.Params.validate(cfg.N); err != nil {
		return err
	}
	return ValidateMix(cfg.Mix)
}

// Eval is the scored latency of a placement at one link limit.
type Eval struct {
	C     int     // link limit
	Width int     // link width b in bits
	Head  float64 // L_D,avg: average 2D head latency in cycles
	Ser   float64 // L_S,avg: average serialization latency in cycles
	Total float64 // L_avg = Head + Ser (Eq. 2)
}

func (e Eval) String() string {
	return fmt.Sprintf("C=%d b=%db L_D=%.2f L_S=%.2f L=%.2f", e.C, e.Width, e.Head, e.Ser, e.Total)
}

// RowMean returns the average directional head latency over all n² ordered
// pairs of a single row, the objective of the 1D problem P̃(n, C). It
// evaluates on a pooled route.Incremental; searches that score many
// neighboring rows should hold an IncObjective instead.
func RowMean(row topo.Row, p Params) float64 {
	inc := rowEvaluator(row, p)
	defer rowEvals.Put(inc)
	return inc.Mean()
}

// rowEvals recycles the evaluators behind RowMean and WeightedRowMean, so
// one-shot scoring allocates nothing once warm.
var rowEvals sync.Pool

// rowEvaluator takes a pooled evaluator (or a fresh one when the pooled one
// was built for another edge-cost model) and resets it to row.
func rowEvaluator(row topo.Row, p Params) *route.Incremental {
	rp := p.Route()
	inc, _ := rowEvals.Get().(*route.Incremental)
	if inc == nil || inc.Params() != rp {
		inc = route.NewIncremental(rp)
	}
	inc.Reset(row)
	return inc
}

// EvalRow scores a row placement replicated over the whole n x n network at
// link limit c. By Eq. (5), with identical rows and columns the 2D average
// head latency is twice the row average.
func (cfg Config) EvalRow(row topo.Row, c int) (Eval, error) {
	if row.N != cfg.N {
		return Eval{}, fmt.Errorf("model: row of %d routers on %dx%d network", row.N, cfg.N, cfg.N)
	}
	if err := row.Validate(c); err != nil {
		return Eval{}, err
	}
	w, err := cfg.BW.Width(c)
	if err != nil {
		return Eval{}, err
	}
	head := 2 * RowMean(row, cfg.Params)
	ser := Serialization(cfg.Mix, w)
	return Eval{C: c, Width: w, Head: head, Ser: ser, Total: head + ser}, nil
}

// TopoPaths caches the per-row and per-column directional shortest paths of
// a topology, from which all 2D pair latencies derive.
type TopoPaths struct {
	T    topo.Topology
	Rows []*route.RowPaths
	Cols []*route.RowPaths
}

// ComputeTopoPaths builds the routing for every row and column.
func ComputeTopoPaths(t topo.Topology, p Params) *TopoPaths {
	tp := &TopoPaths{T: t, Rows: make([]*route.RowPaths, t.H), Cols: make([]*route.RowPaths, t.W)}
	rp := p.Route()
	for y := 0; y < t.H; y++ {
		tp.Rows[y] = route.Compute(t.Rows[y], rp)
	}
	for x := 0; x < t.W; x++ {
		tp.Cols[x] = route.Compute(t.Cols[x], rp)
	}
	return tp
}

// PairHead returns the 2D head latency from node src to node dst under XY
// routing: the horizontal leg on the source row plus the vertical leg on the
// destination column (Section 4.2's decomposition at the turning router).
func (tp *TopoPaths) PairHead(src, dst int) float64 {
	sx, sy := tp.T.Coords(src)
	dx, dy := tp.T.Coords(dst)
	return tp.Rows[sy].Dist[sx][dx] + tp.Cols[dx].Dist[sy][dy]
}

// PairHops returns the hop count of the 2D path from src to dst.
func (tp *TopoPaths) PairHops(src, dst int) int {
	sx, sy := tp.T.Coords(src)
	dx, dy := tp.T.Coords(dst)
	return tp.Rows[sy].Hops[sx][dx] + tp.Cols[dx].Hops[sy][dy]
}

// MeanHead returns the 2D average head latency over all N²·N² ordered node
// pairs (Eq. 2 numerator over N·N).
func (tp *TopoPaths) MeanHead() float64 {
	n := tp.T.NumRouters()
	var sum float64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				sum += tp.PairHead(s, d)
			}
		}
	}
	return sum / float64(n*n)
}

// MaxHead returns the worst-case zero-load head latency over all node pairs.
func (tp *TopoPaths) MaxHead() float64 {
	n := tp.T.NumRouters()
	m := 0.0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if h := tp.PairHead(s, d); h > m {
				m = h
			}
		}
	}
	return m
}

// MeanHops returns the average 2D hop count over all ordered pairs.
func (tp *TopoPaths) MeanHops() float64 {
	n := tp.T.NumRouters()
	var sum float64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				sum += float64(tp.PairHops(s, d))
			}
		}
	}
	return sum / float64(n*n)
}

// EvalTopology scores a full (possibly non-uniform) topology at link limit c
// by exhaustive pairwise evaluation. For uniform topologies it agrees with
// EvalRow, which tests assert.
func (cfg Config) EvalTopology(t topo.Topology, c int) (Eval, error) {
	if t.W != cfg.N || t.H != cfg.N {
		return Eval{}, fmt.Errorf("model: topology %dx%d on config for %dx%d", t.W, t.H, cfg.N, cfg.N)
	}
	return cfg.EvalRectTopology(t, c)
}

// EvalRectTopology scores a topology of any W x H shape at link limit c; the
// config's N is not consulted (its timing, mix and bandwidth are). The
// bisection constraint still fixes one link width for the whole chip.
func (cfg Config) EvalRectTopology(t topo.Topology, c int) (Eval, error) {
	if err := t.Validate(c); err != nil {
		return Eval{}, err
	}
	w, err := cfg.BW.Width(c)
	if err != nil {
		return Eval{}, err
	}
	tp := ComputeTopoPaths(t, cfg.Params)
	head := tp.MeanHead()
	ser := Serialization(cfg.Mix, w)
	return Eval{C: c, Width: w, Head: head, Ser: ser, Total: head + ser}, nil
}

// MaxZeroLoad returns the worst-case zero-load packet latency (Table 2):
// the maximum pairwise head latency plus the mix-average serialization.
func (cfg Config) MaxZeroLoad(t topo.Topology, c int) (float64, error) {
	w, err := cfg.BW.Width(c)
	if err != nil {
		return 0, err
	}
	zeroLoad := cfg.Params
	zeroLoad.Contention = 0
	tp := ComputeTopoPaths(t, zeroLoad)
	return tp.MaxHead() + Serialization(cfg.Mix, w), nil
}

// WeightedRowMean returns the traffic-weighted average head latency of a row,
// Σ γ(a,b)·L_D(a,b) / Σ γ(a,b), the application-specific objective of
// Section 5.6.4. A nil or all-zero weight matrix falls back to the uniform
// mean. Like RowMean it evaluates on a pooled route.Incremental.
func WeightedRowMean(row topo.Row, p Params, w [][]float64) float64 {
	inc := rowEvaluator(row, p)
	defer rowEvals.Put(inc)
	return inc.WeightedMean(w)
}
