package sim

import (
	"context"
	"strings"
	"testing"

	"explink/internal/topo"
	"explink/internal/traffic"
)

func TestRunManyMatchesSequential(t *testing.T) {
	var cfgs []Config
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
		cfg.Seed = seed
		cfg.Measure = 2000
		cfgs = append(cfgs, cfg)
	}
	par, _, err := RunManyAgg(context.Background(), cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if untimed(par[i]) != untimed(seq) {
			t.Fatalf("run %d diverged between parallel and sequential:\n%v\n%v", i, par[i], seq)
		}
	}
}

// TestRunManyAggBatchMatchesPool drives the same seed sweep through the
// batch engine (NewBatch with ReplicaSeeds) and the worker pool
// (RunManyAgg), and requires bit-identical per-seed results.
func TestRunManyAggBatchMatchesPool(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.03)
	cfg.Measure = 2000
	b, err := NewBatch(cfg, ReplicaSeeds(cfg.Seed, 5))
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := b.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := seedSweep(cfg, 5)
	pool, _, err := RunManyAgg(context.Background(), cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if untimed(batch[i]) != untimed(pool[i]) {
			t.Fatalf("replica %d diverged between batch and pool:\n%v\n%v", i, batch[i], pool[i])
		}
	}
}

// TestRunManyAggBatchBadConfigJoin: a seed sweep whose shared config is
// invalid must keep the pool's partial-results contract of one indexed
// error per run.
func TestRunManyAggBatchBadConfigJoin(t *testing.T) {
	bad := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	bad.InjectionRate = 7
	results, _, err := RunManyAgg(context.Background(), seedSweep(bad, 3), 2)
	if err == nil {
		t.Fatal("invalid batch config not reported")
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, want := range []string{"run 0", "run 1", "run 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error %q missing %q", err, want)
		}
	}
}

func TestRunManyPropagatesErrors(t *testing.T) {
	good := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	bad := good
	bad.InjectionRate = 7
	if _, _, err := RunManyAgg(context.Background(), []Config{good, bad}, 2); err == nil {
		t.Fatal("bad config error not propagated")
	}
}

func TestRunManyAggregatesAllErrors(t *testing.T) {
	// Every failed run must be visible in the joined error, not only the
	// lowest-index one, and successful runs must still return real results.
	good := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	bad1 := good
	bad1.InjectionRate = 7
	bad2 := good
	bad2.InjectionRate = -1
	results, _, err := RunManyAgg(context.Background(), []Config{good, bad1, bad2}, 2)
	if err == nil {
		t.Fatal("errors swallowed")
	}
	for _, want := range []string{"run 1", "run 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error %q missing %q", err, want)
		}
	}
	if len(results) != 3 {
		t.Fatalf("partial results truncated: %d entries", len(results))
	}
	if results[0].MeasuredPackets == 0 {
		t.Fatal("successful run lost its result")
	}
}

func TestRunManyEmptyAndDefaults(t *testing.T) {
	res, _, err := RunManyAgg(context.Background(), nil, 0)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty RunManyAgg: %v %v", res, err)
	}
	one := []Config{quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.01)}
	res, _, err = RunManyAgg(context.Background(), one, 0)
	if err != nil || len(res) != 1 || res[0].MeasuredPackets == 0 {
		t.Fatalf("single RunManyAgg: %v %v", res, err)
	}
}

func TestChannelStats(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := s.ChannelStats()
	// A 4x4 mesh has 2*2*n*(n-1) = 48 directed channels.
	if len(stats) != 48 {
		t.Fatalf("channels = %d, want 48", len(stats))
	}
	var total int64
	for _, c := range stats {
		if c.Utilization < 0 || c.Utilization > 1 {
			t.Fatalf("utilization out of range: %v", c)
		}
		if c.Length != 1 {
			t.Fatalf("mesh channel with length %d", c.Length)
		}
		total += c.Flits
	}
	if total == 0 {
		t.Fatal("no channel traffic recorded")
	}
	// Sorted descending.
	for i := 1; i < len(stats); i++ {
		if stats[i].Flits > stats[i-1].Flits {
			t.Fatal("channel stats not sorted")
		}
	}
	sum := s.Summarize()
	if sum.Channels != 48 || sum.MaxUtil < sum.MeanUtil || sum.Gini < 0 || sum.Gini > 1 {
		t.Fatalf("summary broken: %+v", sum)
	}
}

func TestHFBBottleneckVisible(t *testing.T) {
	// Section 5.4: the HFB's inter-quadrant boundary links are its
	// bottleneck. Under uniform traffic the HFB's load distribution must be
	// markedly more unequal than the mesh's, and its busiest channels must
	// be boundary-crossing locals.
	run := func(tp topo.Topology, c int) *Simulator {
		cfg := quickCfg(tp, c, traffic.UniformRandom(8), 0.05)
		cfg.Measure = 4000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	hfb := run(topo.HFB(8), 4)
	mesh := run(topo.Mesh(8), 1)
	hsum, msum := hfb.Summarize(), mesh.Summarize()
	if hsum.Gini <= msum.Gini {
		t.Fatalf("HFB load inequality (%.3f) not above mesh (%.3f)", hsum.Gini, msum.Gini)
	}
	// The single busiest HFB channel crosses a quadrant boundary (between
	// positions 3 and 4 in X or Y).
	top := hfb.ChannelStats()[0]
	crossesX := (top.SrcX == 3 && top.DstX == 4) || (top.SrcX == 4 && top.DstX == 3)
	crossesY := (top.SrcY == 3 && top.DstY == 4) || (top.SrcY == 4 && top.DstY == 3)
	if !crossesX && !crossesY {
		t.Fatalf("busiest HFB channel %v does not cross the quadrant boundary", top)
	}
}

func TestUtilizationHeatmap(t *testing.T) {
	cfg := quickCfg(topo.HFB(8), 4, traffic.UniformRandom(8), 0.05)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	hm := s.UtilizationHeatmap()
	lines := 0
	for _, line := range splitLines(hm) {
		if len(line) > 0 && (line[0] == '.' || line[0] == '-' || line[0] == '+' || line[0] == '#' || line[0] == '@') {
			lines++
			if len(line) != 2*8-1 {
				t.Fatalf("heatmap row width %d: %q", len(line), line)
			}
		}
	}
	if lines != 8 {
		t.Fatalf("heatmap has %d grid rows:\n%s", lines, hm)
	}
	// The network peak must appear as at least one '@'.
	if !containsByte(hm, '@') {
		t.Fatalf("no peak cell in heatmap:\n%s", hm)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func containsByte(s string, b byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return true
		}
	}
	return false
}

func TestResultAndChannelStrings(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
	stats := s.ChannelStats()
	if len(stats) == 0 || stats[0].String() == "" {
		t.Fatal("empty channel string")
	}
	if shadeFor(0.3) != '+' || shadeFor(0.95) != '@' || shadeFor(0.15) != '-' || shadeFor(0.6) != '#' {
		t.Fatal("shade scale broken")
	}
}
