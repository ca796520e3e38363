package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// histDense is the width of the dense counting array: samples in
// [0, histDense) increment a slice slot instead of a map entry. Packet
// latencies below saturation sit well inside this range, so the per-sample
// cost on the hot path is one array increment.
const histDense = 1 << 12

// Histogram collects integer-valued samples (e.g. packet latencies in cycles)
// and reports exact percentiles. Small non-negative values count into a dense
// array; anything else (a wide tail near saturation) spills into a sparse
// map, so memory stays bounded by histDense plus the distinct tail values.
//
// The zero value is an empty, ready-to-use histogram: Add sizes the dense
// array on first use. NewHistogram pre-sizes it so the hot path never
// pays the lazy check's allocation.
type Histogram struct {
	dense  []int64
	sparse map[int]int64
	total  int64
	sum    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{dense: make([]int64, histDense)}
}

// Add records one sample with value v.
func (h *Histogram) Add(v int) {
	if uint(v) < histDense {
		if h.dense == nil {
			h.dense = make([]int64, histDense)
		}
		h.dense[v]++
	} else {
		if h.sparse == nil {
			h.sparse = make(map[int]int64)
		}
		h.sparse[v]++
	}
	h.total++
	h.sum += float64(v)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// count returns the number of samples with value v.
func (h *Histogram) count(v int) int64 {
	if uint(v) < histDense {
		return h.dense[v]
	}
	return h.sparse[v]
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank definition, or 0 with no samples. The rank is ⌈p·N/100⌉:
// truncating instead would e.g. report the 9th smallest of 10 samples as p95.
// Multiplying before dividing keeps the common integer-p cases exact (99·N is
// representable, 99/100 is not), so ceil never rounds an exact rank up.
// Out-of-domain p is clamped: NaN and p <= 0 report the minimum sample,
// p > 100 the maximum, keeping the float→int conversion below away from the
// platform-dependent behaviour of converting NaN or out-of-range values.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if math.IsNaN(p) || p <= 0 {
		p = 0 // rank clamps to 1 below: the minimum sample
	} else if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p * float64(h.total) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	keys := h.sortedKeys()
	var seen int64
	for _, k := range keys {
		seen += h.count(k)
		if seen >= rank {
			return k
		}
	}
	return keys[len(keys)-1]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() int {
	keys := h.sortedKeys()
	if len(keys) == 0 {
		return 0
	}
	return keys[len(keys)-1]
}

func (h *Histogram) sortedKeys() []int {
	keys := make([]int, 0, len(h.sparse)+16)
	for v, c := range h.dense {
		if c != 0 {
			keys = append(keys, v)
		}
	}
	for v := range h.sparse {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	return keys
}

// String renders a compact summary: count, mean and key percentiles.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram: empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f p50=%d p95=%d p99=%d max=%d",
		h.total, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
	return b.String()
}
