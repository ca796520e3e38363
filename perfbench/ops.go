package main

import (
	"encoding/json"
	"fmt"

	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/stats"
)

// op is one request of a workload's op list: the wire body the client sends
// plus the normalized request it decodes to, which the output checks and the
// traced run's layer calls use.
type op struct {
	class string // request class; fixed by the mix, never by the seed
	load  string // sim load regime: "low", "heavy" or "sat"; "" for solves
	path  string
	body  []byte
	solve *api.SolveRequest // normalized; nil for sim ops
	sim   *api.SimRequest   // normalized; nil for solve ops
}

type solveClass struct {
	n, c  int
	algo  core.Algorithm
	worst float64
}

// solveMix is one round of solve-cold and solve-warm, in the order sent; a
// pass sends solveRounds rounds. Every request names one C, so each op
// anneals on one goroutine. The 15 fastest requests (n=8 at C=2 and C=4)
// rank around the pass median, so p50 falls inside the n=8, C=4 block; the
// four n=16, C=8 requests are the slowest class and hold the tail.
var solveMix = []solveClass{
	{8, 2, core.DCSA, 0}, {16, 8, core.DCSA, 0}, {8, 4, core.DCSA, 0}, {8, 2, core.DCSA, 0},
	{16, 2, core.DCSA, 0}, {8, 4, core.DCSA, 0.5}, {8, 2, core.OnlySA, 0}, {16, 4, core.DCSA, 0},
	{8, 4, core.DCSA, 0}, {8, 8, core.DCSA, 0}, {16, 8, core.DCSA, 0}, {8, 2, core.DCSA, 0},
	{8, 4, core.OnlySA, 0}, {16, 2, core.OnlySA, 0}, {8, 4, core.DCSA, 0}, {8, 2, core.DCSA, 0.5},
	{16, 8, core.DCSA, 0.5}, {8, 4, core.DCSA, 0}, {16, 4, core.OnlySA, 0}, {8, 2, core.DCSA, 0},
	{8, 4, core.DCSA, 0}, {16, 8, core.DCSA, 0}, {8, 2, core.DCSA, 0}, {8, 4, core.DCSA, 0},
}

func (c solveClass) String() string {
	s := fmt.Sprintf("n%d-c%d-%s", c.n, c.c, c.algo)
	if c.worst > 0 {
		s += "-worst"
	}
	return s
}

type simClass struct {
	n        int
	topo     string
	pattern  string
	rate     float64 // 0 keeps the PARSEC proxy's own rate
	replicas int
	load     string
}

// simPhases are the fixed warmup, measure and drain lengths of every sim op.
// The drain is a cutoff; every op in the mix drains long before it.
var simPhases = [3]int{1000, 4000, 16000}

// satRate is just below the 8x8 mesh's UR saturation throughput (about 0.33
// packets/node/cycle at these phase lengths).
const satRate = 0.30

// simMix is one round of the sim workload; a pass sends simRounds rounds.
// Twelve of its 20 requests are single 8x8 blackscholes runs, the fastest
// class: six on mesh, then six on dcsa, which is slower. The median, the
// 10th request by latency, falls inside the dcsa block and not at its upper
// edge, where it would be the block's maximum. The two saturated UR runs are
// the slowest class and hold the tail. Two low-load requests ask for two
// replicas and take the sim.Batch path.
var simMix = []simClass{
	{8, "mesh", "blackscholes", 0, 1, "low"},
	{8, "dcsa", "blackscholes", 0, 1, "low"},
	{8, "mesh", "UR", satRate, 1, "sat"},
	{8, "mesh", "blackscholes", 0, 1, "low"},
	{16, "mesh", "UR", 0.005, 1, "low"},
	{8, "dcsa", "blackscholes", 0, 1, "low"},
	{8, "mesh", "canneal", 0, 1, "heavy"},
	{8, "mesh", "blackscholes", 0, 2, "low"},
	{8, "dcsa", "blackscholes", 0, 1, "low"},
	{8, "dcsa", "UR", satRate, 1, "sat"},
	{8, "mesh", "blackscholes", 0, 1, "low"},
	{16, "mesh", "blackscholes", 0, 1, "low"},
	{8, "dcsa", "canneal", 0, 1, "heavy"},
	{8, "dcsa", "blackscholes", 0, 2, "low"},
	{8, "mesh", "blackscholes", 0, 1, "low"},
	{8, "dcsa", "blackscholes", 0, 1, "low"},
	{8, "mesh", "blackscholes", 0, 1, "low"},
	{8, "dcsa", "blackscholes", 0, 1, "low"},
	{8, "mesh", "blackscholes", 0, 1, "low"},
	{8, "dcsa", "blackscholes", 0, 1, "low"},
}

func (c simClass) String() string {
	s := fmt.Sprintf("n%d-%s-%s", c.n, c.topo, c.pattern)
	if c.rate > 0 {
		s += fmt.Sprintf("@%g", c.rate)
	}
	if c.replicas > 1 {
		s += fmt.Sprintf("-x%d", c.replicas)
	}
	return s
}

// solveRounds and simRounds are how many times a pass sends its mix, each
// round with fresh request seeds. A request's cost depends on its seed, and
// p50 and the tail each fall on a few requests of one class; with several
// rounds they rest on several seeds of that class, not on one.
const (
	solveRounds = 4
	simRounds   = 2
)

// requestSeed derives op i's request seed from the workload seed. The seed
// reaches the program only through these request fields.
func requestSeed(seed uint64, i int) uint64 {
	s := stats.MixSeed(seed, uint64(i))
	if s == 0 {
		s = 1 // 0 would normalize to the default seed
	}
	return s
}

// solveOps builds the op list shared by solve-cold and solve-warm.
func solveOps(seed uint64) []op {
	ops := make([]op, solveRounds*len(solveMix))
	for i := range ops {
		c := solveMix[i%len(solveMix)]
		req := api.SolveRequest{N: c.n, C: c.c, Algo: string(c.algo), Seed: requestSeed(seed, i), WorstWeight: c.worst}
		body := mustJSON(req)
		req.Normalize()
		ops[i] = op{class: c.String(), path: "/" + api.SchemaVersion + "/solve", body: body, solve: &req}
	}
	return ops
}

// simOps builds the sim workload's op list.
func simOps(seed uint64) []op {
	ops := make([]op, simRounds*len(simMix))
	for i := range ops {
		c := simMix[i%len(simMix)]
		req := api.SimRequest{
			N: c.n, Topo: c.topo, Pattern: c.pattern, Rate: c.rate, Seed: requestSeed(seed, i),
			Warmup: simPhases[0], Measure: simPhases[1], Drain: simPhases[2], Replicas: c.replicas,
		}
		body := mustJSON(req)
		req.Normalize()
		ops[i] = op{class: c.String(), load: c.load, path: "/" + api.SchemaVersion + "/sim", body: body, sim: &req}
	}
	return ops
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain request structs always marshal
	}
	return b
}
