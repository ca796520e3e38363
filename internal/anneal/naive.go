package anneal

import (
	"math"

	"explink/internal/stats"
	"explink/internal/topo"
)

// This file implements the naive candidate generator that Section 4.4.2
// argues against: annealing directly over the raw link space, where each
// move adds, deletes, stretches, or shortens a randomly selected express
// link. Such candidates frequently violate the cross-section limit and must
// be rejected, wasting moves — the inefficiency the connection-matrix space
// eliminates. It exists as an ablation baseline (see exp.AblationGenerator).

// NaiveResult reports a raw-space annealing run.
type NaiveResult struct {
	Row      topo.Row
	Obj      float64
	Evals    int64 // objective evaluations (valid candidates only)
	Invalid  int64 // generated candidates that violated the link limit
	Moves    int64 // total moves consumed (valid + invalid)
	Accepted int64
}

// MinimizeNaive anneals over the raw span space under link limit c, starting
// from init (which must satisfy the limit). Every generated candidate that
// violates the limit costs a move but no evaluation, mirroring how a naive
// implementation would discard it after the feasibility check.
func MinimizeNaive(init topo.Row, c int, obj func(topo.Row) float64, sch Schedule, rng *stats.RNG) NaiveResult {
	if err := init.Validate(c); err != nil {
		panic("anneal: naive annealing seeded with an infeasible row: " + err.Error())
	}
	cur := init.Clone()
	curObj := obj(cur)
	res := NaiveResult{Row: cur.Clone(), Obj: curObj, Evals: 1}

	temp := sch.T0
	for move := 1; move <= sch.Moves; move++ {
		res.Moves++
		cand, ok := naiveMove(cur, rng)
		if !ok || cand.Validate(c) != nil {
			res.Invalid++
		} else {
			candObj := obj(cand)
			res.Evals++
			delta := candObj - curObj
			accept := delta <= 0
			if !accept && temp > 0 {
				accept = rng.Float64() < math.Exp(-delta/temp)
			}
			if accept {
				res.Accepted++
				cur, curObj = cand, candObj
				if candObj < res.Obj {
					res.Obj = candObj
					res.Row = cand.Clone()
				}
			}
		}
		if sch.CoolEvery > 0 && move%sch.CoolEvery == 0 && sch.CoolDiv > 0 {
			temp /= sch.CoolDiv
		}
	}
	res.Row = res.Row.Canonical()
	return res
}

// naiveMove applies one random add/delete/stretch/shorten edit. It returns
// ok=false when the edit cannot even be expressed (e.g. deleting from an
// empty placement), which also counts as a wasted move.
func naiveMove(cur topo.Row, rng *stats.RNG) (topo.Row, bool) {
	n := cur.N
	switch rng.Intn(4) {
	case 0: // add a uniformly random span
		if n < 3 {
			return topo.Row{}, false
		}
		from := rng.Intn(n - 2)
		to := from + 2 + rng.Intn(n-from-2)
		return cur.Add(topo.Span{From: from, To: to}), true
	case 1: // delete a random span
		if len(cur.Express) == 0 {
			return topo.Row{}, false
		}
		i := rng.Intn(len(cur.Express))
		out := cur.Clone()
		out.Express = append(out.Express[:i], out.Express[i+1:]...)
		return out, true
	case 2: // stretch a random endpoint outward
		if len(cur.Express) == 0 {
			return topo.Row{}, false
		}
		i := rng.Intn(len(cur.Express))
		out := cur.Clone()
		s := out.Express[i]
		if rng.Bool(0.5) {
			s.From--
		} else {
			s.To++
		}
		if !s.Valid(n) {
			return topo.Row{}, false
		}
		out.Express[i] = s
		return out, true
	default: // shorten a random endpoint inward
		if len(cur.Express) == 0 {
			return topo.Row{}, false
		}
		i := rng.Intn(len(cur.Express))
		out := cur.Clone()
		s := out.Express[i]
		if rng.Bool(0.5) {
			s.From++
		} else {
			s.To--
		}
		if !s.Valid(n) {
			return topo.Row{}, false
		}
		out.Express[i] = s
		return out, true
	}
}
