package topo

import (
	"fmt"
	"slices"
	"strings"
)

// ConnMatrix is the paper's connection-matrix search space (Section 4.4.2):
// a binary matrix of size (N-2) x (C-1). One layer of links is reserved for
// the local links, leaving C-1 "express layers". In each layer, every
// interior router (1..N-2) carries one bit: set means the two layer links on
// either side of the router are fused into one longer link (the router is
// bypassed), clear means the layer has endpoints at that router.
//
// Decoding a layer therefore partitions the row into segments; segments of
// length >= 2 become express links, while unit-length segments would merely
// duplicate a local link and are dropped (which is why good placements can
// leave some cross-section bandwidth unused, Section 5.4).
//
// Every bit pattern decodes to a placement that keeps all local links and
// respects the cross-section limit C, so a single-bit flip is always a valid
// simulated-annealing move.
type ConnMatrix struct {
	n, c int
	bits []bool // layer-major: bits[layer*(n-2) + (router-1)]
}

// NewConnMatrix returns the all-zero matrix for P̃(n, C). All-zero decodes to
// the plain mesh row. It panics for n < 2 or C < 1.
func NewConnMatrix(n, c int) *ConnMatrix {
	if n < 2 {
		panic(fmt.Sprintf("topo: connection matrix needs n >= 2, got %d", n))
	}
	if c < 1 {
		panic(fmt.Sprintf("topo: connection matrix needs C >= 1, got %d", c))
	}
	return &ConnMatrix{n: n, c: c, bits: make([]bool, (n-2)*(c-1))}
}

// Bits returns the total number of connection points, (N-2)·(C-1). This is
// the dimension of the SA move space; it is 0 when C == 1 or N <= 2.
func (m *ConnMatrix) Bits() int { return len(m.bits) }

func (m *ConnMatrix) index(layer, router int) int {
	if layer < 0 || layer >= m.c-1 {
		panic(fmt.Sprintf("topo: layer %d out of range [0,%d)", layer, m.c-1))
	}
	if router < 1 || router > m.n-2 {
		panic(fmt.Sprintf("topo: interior router %d out of range [1,%d]", router, m.n-2))
	}
	return layer*(m.n-2) + (router - 1)
}

// Connected reports the bit for the given express layer (0-based) and
// interior router (1..N-2).
func (m *ConnMatrix) Connected(layer, router int) bool {
	return m.bits[m.index(layer, router)]
}

// Set assigns the bit for the given layer and interior router.
func (m *ConnMatrix) Set(layer, router int, v bool) {
	m.bits[m.index(layer, router)] = v
}

// FlipAt toggles the i-th bit in layer-major order; this is the SA candidate
// move. It returns the layer and router of the flipped connection point.
func (m *ConnMatrix) FlipAt(i int) (layer, router int) {
	m.bits[i] = !m.bits[i]
	return i / (m.n - 2), i%(m.n-2) + 1
}

// Clone returns a deep copy.
func (m *ConnMatrix) Clone() *ConnMatrix {
	return &ConnMatrix{n: m.n, c: m.c, bits: slices.Clone(m.bits)}
}

// Copy overwrites m with src's bits without allocating. It panics if the two
// matrices have different shapes. It lets hot loops keep a best-so-far state
// in a reusable buffer instead of cloning on every improvement.
func (m *ConnMatrix) Copy(src *ConnMatrix) {
	if m.n != src.n || m.c != src.c {
		panic(fmt.Sprintf("topo: Copy of P~(%d,%d) matrix onto P~(%d,%d)", src.n, src.c, m.n, m.c))
	}
	copy(m.bits, src.bits)
}

// DeltaAt reports how Row() would change if the i-th bit (layer-major order,
// as in FlipAt) were toggled from its current value: the spans that would
// disappear and the spans that would appear. The matrix itself is not
// modified. Results are appended to removed and added so callers can reuse
// buffers; at most two spans appear on one side and one on the other.
//
// A flip only reshapes the segment partition of its own layer around the
// flipped router: setting the bit fuses the two adjacent segments into one,
// clearing it splits the enclosing segment in two. Unit-length segments decode
// to no span (they would duplicate a local link), which is why either side of
// the delta can be empty.
func (m *ConnMatrix) DeltaAt(i int, removed, added []Span) (rem, add []Span) {
	layer, router := i/(m.n-2), i%(m.n-2)+1
	// Segment boundaries of the layer are routers with a clear bit, plus the
	// row ends 0 and n-1.
	s := router - 1
	for s > 0 && m.Connected(layer, s) {
		s--
	}
	e := router + 1
	for e < m.n-1 && m.Connected(layer, e) {
		e++
	}
	appendSpan := func(dst []Span, from, to int) []Span {
		if to-from >= 2 {
			dst = append(dst, Span{From: from, To: to})
		}
		return dst
	}
	if m.bits[i] {
		// Set -> clear: the segment [s,e] splits at the router.
		removed = appendSpan(removed, s, e)
		added = appendSpan(added, s, router)
		added = appendSpan(added, router, e)
	} else {
		// Clear -> set: the segments [s,router] and [router,e] fuse.
		removed = appendSpan(removed, s, router)
		removed = appendSpan(removed, router, e)
		added = appendSpan(added, s, e)
	}
	return removed, added
}

// Equal reports whether two matrices have identical shape and bits.
func (m *ConnMatrix) Equal(o *ConnMatrix) bool {
	return m.n == o.n && m.c == o.c && slices.Equal(m.bits, o.bits)
}

// Randomize sets every bit to the result of an independent draw from coin,
// so the caller controls the bias (e.g. a closure returning true with
// probability p). It is used to seed OnlySA with a uniform random state.
func (m *ConnMatrix) Randomize(coin func() bool) {
	for i := range m.bits {
		m.bits[i] = coin()
	}
}

// AppendKey appends a compact byte encoding of the bit pattern to dst and
// returns the extended slice. Two matrices of the same shape have equal keys
// iff they have equal bits, so string(key) serves as a map key for state
// memoization (the SA objective cache).
func (m *ConnMatrix) AppendKey(dst []byte) []byte {
	var acc byte
	for i, b := range m.bits {
		if b {
			acc |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if len(m.bits)&7 != 0 {
		dst = append(dst, acc)
	}
	return dst
}

// Row decodes the matrix into its express-link placement. The result always
// satisfies Validate(C).
func (m *ConnMatrix) Row() Row {
	r := Row{N: m.n}
	for layer := 0; layer < m.c-1; layer++ {
		segStart := 0
		for router := 1; router < m.n; router++ {
			interior := router <= m.n-2
			if interior && m.Connected(layer, router) {
				continue // the layer passes through this router
			}
			// The layer has an endpoint here (or we reached the last router).
			if router-segStart >= 2 {
				r.Express = append(r.Express, Span{From: segStart, To: router})
			}
			segStart = router
		}
	}
	r.sort()
	return r
}

// MatrixFromRow encodes a placement into a connection matrix for link limit
// c, assigning spans to layers by greedy interval partitioning (sorted by
// left endpoint, each span goes to the first layer whose last span ends at or
// before the new span's start). Because the row's express cross-sections are
// at most c-1 everywhere, c-1 layers always suffice; an error is returned
// only if the row itself violates the limit.
//
// The round trip MatrixFromRow(m.Row()) == m does not hold bit-for-bit (layer
// assignment is not unique) but Row() of the result always equals the input
// row; the proposed SA relies only on that equivalence.
func MatrixFromRow(r Row, c int) (*ConnMatrix, error) {
	if err := r.Validate(c); err != nil {
		return nil, err
	}
	m := NewConnMatrix(r.N, c)
	spans := r.Canonical().Express
	layerEnd := make([]int, c-1) // rightmost router reached by each layer so far
	for _, s := range spans {
		placed := false
		for l := 0; l < c-1; l++ {
			if layerEnd[l] <= s.From {
				for router := s.From + 1; router <= s.To-1; router++ {
					m.Set(l, router, true)
				}
				layerEnd[l] = s.To
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("topo: could not pack %v into %d layers (row %v)", s, c-1, r)
		}
	}
	return m, nil
}

// String renders the matrix as in Fig. 2(a): one line per layer, '*' for a
// connected point and 'o' for a hole, with column positions for the interior
// routers.
func (m *ConnMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P~(%d,%d) connection matrix (%d layers x %d interior routers)\n",
		m.n, m.c, m.c-1, m.n-2)
	for layer := 0; layer < m.c-1; layer++ {
		fmt.Fprintf(&b, "layer %d: ", layer)
		for router := 1; router <= m.n-2; router++ {
			if m.Connected(layer, router) {
				b.WriteByte('*')
			} else {
				b.WriteByte('o')
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
