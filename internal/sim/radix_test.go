package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"explink/internal/topo"
	"explink/internal/traffic"
)

// hubTopology is a 33x32 mesh whose router (0,0) links directly to every
// router of its row and of its column: 32 row plus 31 column neighbours, so
// with k cores per router its input-port count is 63+k.
func hubTopology() topo.Topology {
	hub := func(n int) topo.Row {
		var spans []topo.Span
		for j := 2; j < n; j++ {
			spans = append(spans, topo.Span{From: 0, To: j})
		}
		return topo.NewRow(n, spans...)
	}
	t := topo.MeshRect(33, 32)
	t.Rows[0] = hub(33)
	t.Cols[0] = hub(32)
	return t
}

func hubCfg(k int) Config {
	t := hubTopology()
	cfg := NewConfig(t, 32, traffic.UniformRandomN(t.NumRouters()*k), 0.001)
	cfg.Concentration = k
	cfg.Warmup, cfg.Measure, cfg.Drain = 50, 200, 5000
	return cfg
}

// TestRouterPortLimit pins the allocator's 64-input-port limit: the hub
// router with one core has exactly 64 input ports and builds and runs; one
// more core gives it 65, which New and NewBatch both reject as ErrConfig.
func TestRouterPortLimit(t *testing.T) {
	s, err := New(hubCfg(1))
	if err != nil {
		t.Fatalf("64-port router rejected: %v", err)
	}
	if n := len(s.routers[0].in); n != 64 {
		t.Fatalf("hub router has %d input ports, want 64", n)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.MeasuredPackets == 0 {
		t.Fatalf("64-port network did not run cleanly: %v", res)
	}

	over := hubCfg(2)
	if _, err := New(over); !errors.Is(err, ErrConfig) {
		t.Fatalf("New with a 65-port router: err = %v, want ErrConfig", err)
	}
	if _, err := NewBatch(over, ReplicaSeeds(over.Seed, 2)); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewBatch with a 65-port router: err = %v, want ErrConfig", err)
	}
}

// TestPhaseSumOverflow: phase lengths whose cumulative cycle count wraps
// int64 are ErrConfig, not a run that ends at cycle 0 and reports drained.
func TestPhaseSumOverflow(t *testing.T) {
	for _, ph := range [][3]int{
		{1, math.MaxInt, 0},
		{math.MaxInt, 10000, 0},
		{1 << 62, 1 << 62, 1 << 62},
		{1, math.MaxInt - 1, 1},
	} {
		cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
		cfg.Warmup, cfg.Measure, cfg.Drain = ph[0], ph[1], ph[2]
		if _, err := New(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("phases %v: err = %v, want ErrConfig", ph, err)
		}
	}
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.02)
	cfg.Warmup, cfg.Measure, cfg.Drain = 1, math.MaxInt-2, 1
	if _, err := New(cfg); err != nil {
		t.Fatalf("phases summing to exactly MaxInt rejected: %v", err)
	}
}
