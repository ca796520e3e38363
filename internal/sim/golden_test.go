package sim

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"explink/internal/topo"
	"explink/internal/traffic"
)

// The golden fixtures pin the simulator's exact behaviour: every Result field
// and every Counts field of the matrix below was recorded from the seed
// engine (pre-active-set), and any engine change must reproduce them bit for
// bit. Regenerate only on an intentional semantic change:
//
//	go test ./internal/sim -run TestGoldenBitIdentity -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

const goldenFile = "testdata/golden_results.json"

// expressTopo8 is a fixed D&C_SA-style 8x8 express placement (the C=4 row the
// solver produces for the paper's default config at seed 1), hardcoded so the
// fixtures do not depend on the optimizer.
func expressTopo8() (topo.Topology, int) {
	row := topo.NewRow(8,
		topo.Span{From: 0, To: 2}, topo.Span{From: 0, To: 4},
		topo.Span{From: 1, To: 5}, topo.Span{From: 2, To: 4},
		topo.Span{From: 4, To: 6}, topo.Span{From: 4, To: 7},
		topo.Span{From: 5, To: 7})
	return topo.Uniform("Express8", 8, row), 4
}

func goldenCfg(t topo.Topology, c int, pat traffic.Pattern, rate float64) Config {
	cfg := NewConfig(t, c, pat, rate)
	cfg.Seed = 7
	cfg.Warmup, cfg.Measure, cfg.Drain = 300, 1500, 4000
	return cfg
}

// goldenCases enumerates the fixture matrix: 4x4/8x8 mesh and express
// topologies under UR, transpose and hotspot traffic, DOR and O1TURN routing,
// with and without pipeline bypass and concentration.
func goldenCases() map[string]Config {
	express8, c8 := expressTopo8()
	hot8 := traffic.Hotspot(8, []int{0, 7, 56, 63}, 0.3, traffic.UniformRandom(8))

	cases := map[string]Config{}
	add := func(name string, cfg Config, mut func(*Config)) {
		if mut != nil {
			mut(&cfg)
		}
		cases[name] = cfg
	}

	add("mesh4-ur-xy", goldenCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05), nil)
	add("mesh4-ur-xy-bypass", goldenCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05),
		func(c *Config) { c.PipelineBypass = true })
	add("mesh4-tp-o1turn", goldenCfg(topo.Mesh(4), 1, traffic.Transpose(4), 0.04),
		func(c *Config) { c.Routing = RoutingO1Turn })
	add("mesh8-ur-xy", goldenCfg(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.05), nil)
	add("mesh8-ur-o1turn", goldenCfg(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.05),
		func(c *Config) { c.Routing = RoutingO1Turn })
	add("mesh8-tp-xy", goldenCfg(topo.Mesh(8), 1, traffic.Transpose(8), 0.03), nil)
	add("mesh8-hotspot-xy", goldenCfg(topo.Mesh(8), 1, hot8, 0.02), nil)
	add("mesh8-hotspot-o1turn-bypass", goldenCfg(topo.Mesh(8), 1, hot8, 0.02),
		func(c *Config) { c.Routing = RoutingO1Turn; c.PipelineBypass = true })
	add("express8-ur-xy", goldenCfg(express8, c8, traffic.UniformRandom(8), 0.05), nil)
	add("express8-ur-o1turn", goldenCfg(express8, c8, traffic.UniformRandom(8), 0.05),
		func(c *Config) { c.Routing = RoutingO1Turn })
	add("express8-tp-xy-bypass", goldenCfg(express8, c8, traffic.Transpose(8), 0.03),
		func(c *Config) { c.PipelineBypass = true })
	add("express8-hotspot-o1turn", goldenCfg(express8, c8, hot8, 0.02),
		func(c *Config) { c.Routing = RoutingO1Turn })
	add("hfb8-ur-xy", goldenCfg(topo.HFB(8), topo.HFB(8).MaxCrossSection(), traffic.UniformRandom(8), 0.05), nil)
	add("mesh4-k2-ur-xy", goldenCfg(topo.Mesh(4), 1, traffic.UniformRandomRect(2*4, 4), 0.03),
		func(c *Config) { c.Concentration = 2 })
	add("express8-k2-ur-o1turn", goldenCfg(express8, c8, traffic.UniformRandomRect(2*8, 8), 0.02),
		func(c *Config) { c.Concentration = 2; c.Routing = RoutingO1Turn })
	return cases
}

// runGolden executes every fixture case, including the trace record/replay
// pair, and returns name -> Result. With audit set every run re-verifies the
// engine's conservation invariants each cycle; because the auditor only reads
// state, the results must stay bit-identical either way.
func runGolden(t *testing.T, audit bool) map[string]Result {
	t.Helper()
	out := map[string]Result{}
	for name, cfg := range goldenCases() {
		cfg.Audit = audit
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res
	}

	// Trace replay: record a workload, then replay it through a fresh
	// simulator (with and without O1TURN's per-packet class redraw).
	record := func(name string, cfg Config) *Trace {
		cfg.RecordTrace = true
		cfg.Audit = audit
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res
		return s.RecordedTrace()
	}
	replay := func(name string, cfg Config, tr *Trace) {
		cfg.Trace = tr
		cfg.Audit = audit
		cfg.Pattern = nil
		cfg.InjectionRate = 0
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res
	}

	mesh4 := goldenCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	tr := record("mesh4-ur-record", mesh4)
	replay("mesh4-trace-replay", mesh4, tr)

	express8, c8 := expressTopo8()
	e8 := goldenCfg(express8, c8, traffic.UniformRandom(8), 0.04)
	e8.Routing = RoutingO1Turn
	tr8 := record("express8-o1turn-record", e8)
	replay("express8-trace-replay-o1turn", e8, tr8)
	return out
}

// comparable strips the non-deterministic wall-clock fields (absent in the
// seed engine, populated after the active-set rework) and flattens the rest
// to a JSON map, so fixture comparison covers every remaining field exactly.
func comparableResult(t *testing.T, v any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "WallTime")
	delete(m, "CyclesPerSec")
	return m
}

// compareGolden checks a fixture map against the recorded golden file.
func compareGolden(t *testing.T, got map[string]Result) {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing fixtures (run with -update to record): %v", err)
	}
	var want map[string]map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture count %d, case count %d", len(want), len(got))
	}
	for name, res := range got {
		wantRes, ok := want[name]
		if !ok {
			t.Errorf("%s: no fixture recorded", name)
			continue
		}
		gotRes := comparableResult(t, res)
		if !reflect.DeepEqual(gotRes, wantRes) {
			gj, _ := json.MarshalIndent(gotRes, "", "  ")
			wj, _ := json.MarshalIndent(wantRes, "", "  ")
			t.Errorf("%s: result diverged from seed engine\n got: %s\nwant: %s", name, gj, wj)
		}
	}
}

func TestGoldenBitIdentity(t *testing.T) {
	got := runGolden(t, false)

	if *updateGolden {
		norm := map[string]map[string]any{}
		for name, res := range got {
			norm[name] = comparableResult(t, res)
		}
		raw, err := json.MarshalIndent(norm, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(norm), goldenFile)
		return
	}

	compareGolden(t, got)
}

// runGoldenBatch mirrors runGolden over the batched replica engine: every
// fixture config runs as replica 0 of a two-replica Batch (the second
// replica uses an unrelated seed), so the comparison proves batch replicas
// are bit-identical to the recorded single-run fixtures — shared network
// description, interleaved advance scheduling and all.
func runGoldenBatch(t *testing.T) map[string]Result {
	t.Helper()
	runBatch := func(name string, cfg Config) (Result, *Simulator) {
		t.Helper()
		b, err := NewBatch(cfg, []uint64{cfg.Seed, cfg.Seed ^ 0x9e3779b97f4a7c15})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results, _, err := b.Run(context.Background(), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return results[0], b.Replicas()[0]
	}
	out := map[string]Result{}
	for name, cfg := range goldenCases() {
		out[name], _ = runBatch(name, cfg)
	}

	record := func(name string, cfg Config) *Trace {
		cfg.RecordTrace = true
		res, s := runBatch(name, cfg)
		out[name] = res
		return s.RecordedTrace()
	}
	replay := func(name string, cfg Config, tr *Trace) {
		cfg.Trace = tr
		cfg.Pattern = nil
		cfg.InjectionRate = 0
		out[name], _ = runBatch(name, cfg)
	}

	mesh4 := goldenCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	tr := record("mesh4-ur-record", mesh4)
	replay("mesh4-trace-replay", mesh4, tr)

	express8, c8 := expressTopo8()
	e8 := goldenCfg(express8, c8, traffic.UniformRandom(8), 0.04)
	e8.Routing = RoutingO1Turn
	tr8 := record("express8-o1turn-record", e8)
	replay("express8-trace-replay-o1turn", e8, tr8)
	return out
}

// TestGoldenBatchBitIdentity runs the whole fixture matrix in batch mode and
// compares against the same golden file as the single-run test. Like the
// audit variant it never rewrites fixtures: batch mode is a consumer of the
// recorded truth.
func TestGoldenBatchBitIdentity(t *testing.T) {
	compareGolden(t, runGoldenBatch(t))
}

// TestGoldenBitIdentityAudit reruns the full fixture matrix with the
// invariant auditor enabled. It proves two things at once: the auditor is a
// pure observer (every Result is still bit-identical to the recorded seed
// fixtures), and nineteen diverse engine configurations uphold every
// conservation invariant on every cycle. It never rewrites the fixtures,
// even under -update: the audited run is a consumer of the golden file, not
// a producer.
func TestGoldenBitIdentityAudit(t *testing.T) {
	compareGolden(t, runGolden(t, true))
}
