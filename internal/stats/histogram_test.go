package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.String() != "histogram: empty" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	cases := []struct {
		p    float64
		want int
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %g", h.Mean())
	}
	if h.Max() != 100 {
		t.Fatalf("max = %d", h.Max())
	}
}

// TestHistogramPercentilesNearestRankCeil pins the ⌈p·N/100⌉ rank on totals
// that are not multiples of 100, where the old truncating rank under-read by
// one (e.g. p95 of 10 samples returned the 9th smallest).
func TestHistogramPercentilesNearestRankCeil(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int // expected value with samples 1..n
	}{
		{10, 95, 10},   // ceil(9.5) = 10; truncation reported 9
		{10, 50, 5},    // ceil(5.0) = 5: exact ranks stay put
		{10, 91, 10},   // ceil(9.1) = 10
		{10, 90, 9},    // ceil(9.0) = 9
		{3, 50, 2},     // ceil(1.5) = 2
		{3, 100, 3},    // full rank
		{7, 99, 7},     // ceil(6.93) = 7
		{1, 99, 1},     // single sample answers every percentile
		{101, 99, 100}, // ceil(99.99) = 100
		{200, 99, 198}, // ceil(198.0) = 198: integer product stays exact
	}
	for _, c := range cases {
		h := NewHistogram()
		for v := 1; v <= c.n; v++ {
			h.Add(v)
		}
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("n=%d p%g = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestHistogramSkewed(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 99; i++ {
		h.Add(10)
	}
	h.Add(1000)
	if h.Percentile(50) != 10 {
		t.Fatalf("p50 = %d", h.Percentile(50))
	}
	if h.Percentile(100) != 1000 {
		t.Fatalf("p100 = %d", h.Percentile(100))
	}
}

// TestHistogramZeroValue guards the zero-value contract: a Histogram{} that
// never went through NewHistogram must accept Add instead of panicking on the
// nil dense slice.
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	h.Add(4)
	h.Add(histDense + 5) // sparse path
	for i := 0; i < 9; i++ {
		h.Add(2)
	}
	if h.Count() != 11 {
		t.Fatalf("count = %d, want 11", h.Count())
	}
	if got := h.Percentile(50); got != 2 {
		t.Fatalf("p50 = %d, want 2", got)
	}
	if h.Max() != histDense+5 {
		t.Fatalf("max = %d", h.Max())
	}
	var empty Histogram
	if empty.Count() != 0 || empty.Percentile(50) != 0 {
		t.Fatalf("zero value: count %d, p50 %d", empty.Count(), empty.Percentile(50))
	}
}

// TestHistogramPercentileDomain pins the clamping of out-of-domain p: the
// documented contract is 0 < p <= 100, and NaN or out-of-range p previously
// reached int64(math.Ceil(...)) with platform-dependent results.
func TestHistogramPercentileDomain(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 10; v++ {
		h.Add(v)
	}
	cases := []struct {
		name string
		p    float64
		want int
	}{
		{"nan", math.NaN(), 1},
		{"zero", 0, 1},
		{"negative", -5, 1},
		{"neg-inf", math.Inf(-1), 1},
		{"tiny", 1e-300, 1}, // in-domain: rank ceil(>0) = 1
		{"over", 150, 10},
		{"pos-inf", math.Inf(1), 10},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("%s: Percentile(%g) = %d, want %d", c.name, c.p, got, c.want)
		}
	}
	// An empty histogram still answers 0 regardless of p.
	if got := NewHistogram().Percentile(math.NaN()); got != 0 {
		t.Errorf("empty Percentile(NaN) = %d, want 0", got)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	if !strings.Contains(h.String(), "n=1") {
		t.Fatalf("String = %q", h.String())
	}
}
