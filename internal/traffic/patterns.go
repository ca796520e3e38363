// Package traffic generates the workloads of the paper's evaluation
// (Section 5.1 and 5.4): the classic synthetic patterns (uniform random,
// transpose, bit-reverse, and friends) and synthetic proxies for the ten
// PARSEC 2.0 benchmarks. It also collects node-to-node traffic matrices for
// the application-specific flow of Section 5.6.4.
//
// Nodes are identified by id = y*n + x on an n x n network. A Pattern may
// return the source itself; callers drop such packets (a node does not use
// the network to talk to itself), which matches how gem5's synthetic
// injectors handle self-addressed traffic.
package traffic

import (
	"fmt"
	"math/bits"

	"explink/internal/stats"
)

// Pattern chooses a destination for each injected packet.
type Pattern interface {
	Name() string
	// Dest returns the destination node for a packet injected at src.
	// A return value equal to src means "drop this packet".
	Dest(src int, rng *stats.RNG) int
}

// uniform implements uniform-random traffic (UR).
type uniform struct{ nodes int }

// UniformRandom sends each packet to a destination drawn uniformly from all
// other nodes of an n x n network.
func UniformRandom(n int) Pattern { return uniform{nodes: n * n} }

// UniformRandomRect is UniformRandom over a rectangular w x h network.
func UniformRandomRect(w, h int) Pattern { return uniform{nodes: w * h} }

func (u uniform) Name() string { return "UR" }

func (u uniform) Dest(src int, rng *stats.RNG) int {
	d := rng.Intn(u.nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// permutation wraps a fixed src->dst mapping (TP, BR, BC, shuffle, ...).
type permutation struct {
	name string
	dst  []int
}

func (p permutation) Name() string                   { return p.name }
func (p permutation) Dest(src int, _ *stats.RNG) int { return p.dst[src] }

func makePermutation(name string, n int, f func(x, y int) (int, int)) Pattern {
	dst := make([]int, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dx, dy := f(x, y)
			dst[y*n+x] = dy*n + dx
		}
	}
	return permutation{name: name, dst: dst}
}

// Transpose sends (x, y) to (y, x); diagonal nodes inject nothing.
func Transpose(n int) Pattern {
	return makePermutation("TP", n, func(x, y int) (int, int) { return y, x })
}

// BitReverse sends node id to the id with its bits reversed. n must be a
// power of two.
func BitReverse(n int) Pattern {
	b := addrBits(n)
	return makePermutation("BR", n, func(x, y int) (int, int) {
		id := y*n + x
		rev := int(bits.Reverse64(uint64(id)) >> (64 - b))
		return rev % n, rev / n
	})
}

// BitComplement sends node id to its bitwise complement.
func BitComplement(n int) Pattern {
	b := addrBits(n)
	mask := (1 << b) - 1
	return makePermutation("BC", n, func(x, y int) (int, int) {
		id := (y*n + x) ^ mask
		return id % n, id / n
	})
}

// Shuffle sends node id to rotate-left-by-one of its address bits.
func Shuffle(n int) Pattern {
	b := addrBits(n)
	mask := (1 << b) - 1
	return makePermutation("SH", n, func(x, y int) (int, int) {
		id := y*n + x
		id = ((id << 1) | (id >> (b - 1))) & mask
		return id % n, id / n
	})
}

// Tornado shifts each dimension by ceil(n/2)-1, the adversarial pattern for
// rings and meshes.
func Tornado(n int) Pattern {
	shift := (n+1)/2 - 1
	return makePermutation("TOR", n, func(x, y int) (int, int) {
		return (x + shift) % n, (y + shift) % n
	})
}

// Neighbor sends each packet one hop to the right (wrapping), a best-case
// local pattern.
func Neighbor(n int) Pattern {
	return makePermutation("NBR", n, func(x, y int) (int, int) {
		return (x + 1) % n, y
	})
}

func addrBits(n int) int {
	nodes := n * n
	if nodes&(nodes-1) != 0 {
		panic(fmt.Sprintf("traffic: bit patterns need a power-of-two node count, got %d", nodes))
	}
	return bits.TrailingZeros(uint(nodes))
}

// hotspot mixes a background pattern with concentrated traffic to a fixed
// set of hot nodes (e.g. memory controllers).
type hotspot struct {
	name string
	bg   Pattern
	hot  []int
	frac float64
}

// Hotspot sends each packet to one of the hot nodes with probability frac
// and follows the background pattern otherwise. A hot node that is itself a
// source redirects its own hotspot traffic uniformly over the other hot
// nodes, so every source injects the full frac share; with a single hot node
// that node has no other target and its hotspot draws degenerate to dropped
// self-addressed packets (the one case where injected hotspot traffic falls
// short of frac).
func Hotspot(n int, hot []int, frac float64, background Pattern) Pattern {
	if len(hot) == 0 {
		panic("traffic: hotspot needs at least one hot node")
	}
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("traffic: hotspot fraction %g out of range", frac))
	}
	return hotspot{name: fmt.Sprintf("HS%.0f%%", frac*100), bg: background, hot: hot, frac: frac}
}

func (h hotspot) Name() string { return h.name }

func (h hotspot) Dest(src int, rng *stats.RNG) int {
	if rng.Bool(h.frac) {
		d := h.hot[rng.Intn(len(h.hot))]
		if d != src || len(h.hot) == 1 {
			return d
		}
		// The drawn hot node is the source itself: redraw uniformly over the
		// other hot nodes instead of silently dropping the packet, so hot-node
		// sources still inject their full frac share of hotspot traffic.
		j := rng.Intn(len(h.hot) - 1)
		for _, node := range h.hot {
			if node == src {
				continue
			}
			if j == 0 {
				return node
			}
			j--
		}
		return d // unreachable unless hot lists src twice; caller drops it
	}
	return h.bg.Dest(src, rng)
}

// Matrix estimates the node-to-node traffic matrix gamma of a pattern by
// sampling: samples destinations per source, each contributing one unit.
// Deterministic patterns produce exact (scaled) matrices.
func Matrix(n int, p Pattern, samplesPerSource int, rng *stats.RNG) [][]float64 {
	nn := n * n
	g := make([][]float64, nn)
	for s := range g {
		g[s] = make([]float64, nn)
		for k := 0; k < samplesPerSource; k++ {
			d := p.Dest(s, rng)
			if d != s {
				g[s][d]++
			}
		}
	}
	return g
}
