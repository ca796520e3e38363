package model

import (
	"math"
	"testing"
	"testing/quick"

	"explink/internal/stats"
	"explink/internal/topo"
)

func TestFlitsFor(t *testing.T) {
	cases := []struct{ bits, width, want int }{
		{512, 256, 2}, {128, 256, 1}, {512, 128, 4}, {128, 128, 1},
		{512, 512, 1}, {100, 64, 2}, {1, 256, 1},
	}
	for _, c := range cases {
		if got := FlitsFor(c.bits, c.width); got != c.want {
			t.Errorf("FlitsFor(%d,%d) = %d, want %d", c.bits, c.width, got, c.want)
		}
	}
}

func TestSerializationDefaults(t *testing.T) {
	mix := DefaultMix()
	// Link limit C with 256-bit base: width 256/C.
	cases := []struct {
		width int
		want  float64
	}{
		{256, 0.8*1 + 0.2*2}, // 1.2
		{128, 0.8*1 + 0.2*4}, // 1.6
		{64, 0.8*2 + 0.2*8},  // 3.2
		{32, 0.8*4 + 0.2*16}, // 6.4
		{16, 0.8*8 + 0.2*32}, // 12.8
		{512, 0.8*1 + 0.2*1}, // 1.0
	}
	for _, c := range cases {
		if got := Serialization(mix, c.width); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Serialization(width=%d) = %g, want %g", c.width, got, c.want)
		}
	}
}

func TestValidateMix(t *testing.T) {
	if err := ValidateMix(DefaultMix()); err != nil {
		t.Fatal(err)
	}
	if ValidateMix(nil) == nil {
		t.Fatal("empty mix accepted")
	}
	if ValidateMix([]PacketClass{{Name: "x", Bits: 0, Frac: 1}}) == nil {
		t.Fatal("zero-size class accepted")
	}
	if ValidateMix([]PacketClass{{Name: "x", Bits: 64, Frac: 0.5}}) == nil {
		t.Fatal("fractions not summing to 1 accepted")
	}
}

func TestBandwidthWidths(t *testing.T) {
	bw := DefaultBandwidth()
	cases := map[int]int{1: 256, 2: 128, 4: 64, 8: 32, 16: 16, 32: 8, 64: 4}
	for c, want := range cases {
		got, err := bw.Width(c)
		if err != nil {
			t.Fatalf("Width(%d): %v", c, err)
		}
		if got != want {
			t.Errorf("Width(%d) = %d, want %d", c, got, want)
		}
	}
	if _, err := bw.Width(128); err == nil {
		t.Fatal("width below minimum accepted")
	}
	if _, err := bw.Width(0); err == nil {
		t.Fatal("C=0 accepted")
	}
}

func TestBandwidthCap(t *testing.T) {
	bw := Bandwidth{BaseWidth: 1024, MaxWidth: 512, MinWidth: 4}
	w, err := bw.Width(1)
	if err != nil || w != 512 {
		t.Fatalf("capped width = %d, %v", w, err)
	}
	w, err = bw.Width(2)
	if err != nil || w != 512 {
		t.Fatalf("width(2) = %d", w)
	}
	w, err = bw.Width(4)
	if err != nil || w != 256 {
		t.Fatalf("width(4) = %d", w)
	}
}

func TestFeasibleLimits(t *testing.T) {
	bw := DefaultBandwidth()
	got := bw.FeasibleLimits(topo.LinkLimits(16))
	// 16x16 allows C up to 64 (width 4 = minimum).
	if len(got) != 7 || got[6] != 64 {
		t.Fatalf("feasible limits = %v", got)
	}
	bwNarrow := Bandwidth{BaseWidth: 256, MaxWidth: 512, MinWidth: 32}
	got = bwNarrow.FeasibleLimits(topo.LinkLimits(16))
	if len(got) != 4 || got[3] != 8 {
		t.Fatalf("narrow feasible limits = %v", got)
	}
}

func TestEvalRowMesh8(t *testing.T) {
	cfg := DefaultConfig(8)
	e, err := cfg.EvalRow(topo.MeshRow(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Row mean 10.5 (tested in route), doubled for 2D, plus L_S = 1.2.
	if math.Abs(e.Head-21) > 1e-9 {
		t.Fatalf("head = %g, want 21", e.Head)
	}
	if math.Abs(e.Ser-1.2) > 1e-9 {
		t.Fatalf("ser = %g, want 1.2", e.Ser)
	}
	if math.Abs(e.Total-22.2) > 1e-9 {
		t.Fatalf("total = %g, want 22.2", e.Total)
	}
	if e.Width != 256 {
		t.Fatalf("width = %d", e.Width)
	}
}

func TestEvalRowRejectsBad(t *testing.T) {
	cfg := DefaultConfig(8)
	if _, err := cfg.EvalRow(topo.MeshRow(4), 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
	over := topo.NewRow(8, topo.Span{From: 0, To: 4})
	if _, err := cfg.EvalRow(over, 1); err == nil {
		t.Fatal("over-limit row accepted")
	}
}

func TestEvalTopologyMatchesEvalRow(t *testing.T) {
	// Property: for uniform topologies the exhaustive 2D evaluation equals
	// the 2x row shortcut of Eq. (5).
	if err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 4 + rng.Intn(5)
		c := 2 + rng.Intn(3)
		row := randomValidRow(rng, n, c)
		cfg := DefaultConfig(n)
		er, err1 := cfg.EvalRow(row, c)
		et, err2 := cfg.EvalTopology(topo.Uniform("t", n, row), c)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(er.Head-et.Head) < 1e-9 && er.Ser == et.Ser
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxZeroLoadMesh(t *testing.T) {
	cfg := DefaultConfig(8)
	got, err := cfg.MaxZeroLoad(topo.Mesh(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corner to corner: 14 hops * (3+1) = 56, plus 1.2 serialization.
	if math.Abs(got-57.2) > 1e-9 {
		t.Fatalf("max zero load = %g, want 57.2", got)
	}
}

func TestMaxZeroLoadIgnoresContention(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Params.Contention = 5
	got, err := cfg.MaxZeroLoad(topo.Mesh(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-57.2) > 1e-9 {
		t.Fatalf("zero-load latency must ignore contention, got %g", got)
	}
}

func TestTopologyOrderingTable2(t *testing.T) {
	// Table 2's qualitative result: worst-case latency HFB < Mesh on 8x8.
	cfg := DefaultConfig(8)
	mesh, _ := cfg.MaxZeroLoad(topo.Mesh(8), 1)
	hfb, _ := cfg.MaxZeroLoad(topo.HFB(8), 4)
	if hfb >= mesh {
		t.Fatalf("HFB worst case %g not better than mesh %g", hfb, mesh)
	}
}

func TestWeightedRowMean(t *testing.T) {
	row := topo.MeshRow(4)
	p := DefaultParams()
	uniform := WeightedRowMean(row, p, nil)
	// Weight matrix with all ones must (almost) reproduce the unweighted
	// mean, scaled by the diagonal convention: MeanDist divides by n², the
	// weighted version divides by the weight sum over i != j.
	w := make([][]float64, 4)
	for i := range w {
		w[i] = make([]float64, 4)
		for j := range w[i] {
			if i != j {
				w[i][j] = 1
			}
		}
	}
	weighted := WeightedRowMean(row, p, w)
	wantRatio := 16.0 / 12.0 // n² pairs vs n(n-1) pairs
	if math.Abs(weighted-uniform*wantRatio) > 1e-9 {
		t.Fatalf("weighted = %g, uniform = %g", weighted, uniform)
	}
	// Concentrating all weight on one pair returns exactly that pair's cost.
	w2 := make([][]float64, 4)
	for i := range w2 {
		w2[i] = make([]float64, 4)
	}
	w2[0][3] = 1
	if got := WeightedRowMean(row, p, w2); math.Abs(got-12) > 1e-9 {
		t.Fatalf("point weight = %g, want 12", got)
	}
	// All-zero weights fall back to the uniform mean.
	w3 := make([][]float64, 4)
	for i := range w3 {
		w3[i] = make([]float64, 4)
	}
	if got := WeightedRowMean(row, p, w3); math.Abs(got-uniform) > 1e-9 {
		t.Fatalf("zero weights = %g, want %g", got, uniform)
	}
}

func TestMeanPacketBitsAndFlits(t *testing.T) {
	mix := DefaultMix()
	if got := MeanPacketBits(mix); math.Abs(got-(0.8*128+0.2*512)) > 1e-12 {
		t.Fatalf("mean bits = %g", got)
	}
	if got := Serialization(mix, 256); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("mean flits = %g", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(1)
	if bad.Validate() == nil {
		t.Fatal("n=1 accepted")
	}
	neg := DefaultConfig(8)
	neg.Params.RouterDelay = -1
	if neg.Validate() == nil {
		t.Fatal("negative Tr accepted")
	}
}

func randomValidRow(rng *stats.RNG, n, c int) topo.Row {
	r := topo.Row{N: n}
	for i := 0; i < 2*n; i++ {
		from := rng.Intn(n - 2)
		maxLen := n - 1 - from
		if maxLen < 2 {
			continue
		}
		to := from + 2 + rng.Intn(maxLen-1)
		cand := r.Add(topo.Span{From: from, To: to})
		if cand.Validate(c) == nil {
			r = cand
		}
	}
	return r
}
