package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the tests cross-check.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestOpListsDeterministic(t *testing.T) {
	for name, gen := range map[string]func(uint64) []op{"solve": solveOps, "sim": simOps} {
		a, b, other := gen(7), gen(7), gen(8)
		if len(a) != len(other) {
			t.Fatalf("%s: %d ops at seed 7, %d at seed 8", name, len(a), len(other))
		}
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Errorf("%s op %d: seed 7 gave two different bodies", name, i)
			}
			if a[i].class != other[i].class || a[i].load != other[i].load || a[i].path != other[i].path {
				t.Errorf("%s op %d: class %s at seed 7, %s at seed 8", name, i, a[i].class, other[i].class)
			}
			if bytes.Equal(a[i].body, other[i].body) {
				t.Errorf("%s op %d: the seed did not reach the request", name, i)
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {400, 97.5}, {1000, 99}, {1999, 99}, {2000, 99.5}, {10000, 99.9}, {1e6, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// The rule itself: at least minBeyond samples beyond the chosen
	// percentile, fewer beyond every higher one on the ladder.
	for n := 1; n <= 5000; n++ {
		p := tailPercentile(n)
		for _, q := range tailLadder {
			beyond := n - nearestRank(q, n)
			switch {
			case q == p && beyond < minBeyond:
				t.Fatalf("n=%d: p%g has %d beyond", n, p, beyond)
			case q > p && beyond >= minBeyond:
				t.Fatalf("n=%d: chose p%g but p%g has %d beyond", n, p, q, beyond)
			}
		}
	}
}

// TestWorkloadTails pins each workload's fixed tail percentile to the rule
// at the op count of a run of BENCHMARK.json's run_seconds.
func TestWorkloadTails(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		n := w.passes(spec.RunSeconds) * len(w.ops(1))
		if got := tailPercentile(n); got != w.tail {
			t.Errorf("%s: %d ops at %d s call for p%g, workload reports p%g", w.name, n, spec.RunSeconds, got, w.tail)
		}
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(names, w.Name) {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestSlowdownScaling(t *testing.T) {
	c := &calibrator{times: []time.Duration{refNominal, 2 * refNominal, 3 * refNominal}}
	if got := c.slowdown(); got != 2 {
		t.Errorf("slowdown of kernel times 1x, 2x and 3x nominal = %g, want their mean 2", got)
	}
	if got := scaled(3*time.Second, 1.5); got != 2*time.Second {
		t.Errorf("3 s at slowdown 1.5 scaled to %v, want 2s", got)
	}
	c = newCalibrator()
	c.measure()
	if len(c.times) != 1 || c.times[0] <= 0 {
		t.Errorf("one kernel call recorded %v", c.times)
	}
}

func TestFixtureRejectsFlippedByte(t *testing.T) {
	ops := solveOps(fixtureSeed)[:1]
	fixture, err := loadFixture("solve")
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	c := newClient(ops, nil, &tl)
	c.do(newServer(nil, nil).Handler(), 0)
	good := bytes.Clone(c.recs[0].buf.Bytes())
	rec := &c.recs[0]
	if err := newVerifier(ops, fixture[:1]).check(0, rec); err != nil {
		t.Fatalf("unmodified response rejected: %v", err)
	}
	for i := range good {
		rec.buf.Reset()
		rec.buf.Write(good)
		rec.buf.Bytes()[i] ^= 0x01
		if err := newVerifier(ops, fixture[:1]).check(0, rec); err == nil {
			t.Fatalf("response with byte %d flipped (%q) accepted", i, rec.buf.Bytes()[i])
		}
	}
}

func TestCanonicalZeroesTiming(t *testing.T) {
	o := &simOps(1)[0]
	a := []byte("{\n  \"WallTime\": 123456,\n  \"CyclesPerSec\": 1.5e+06,\n  \"Cycles\": 9\n}")
	b := []byte("{\n  \"WallTime\": 98,\n  \"CyclesPerSec\": 77,\n  \"Cycles\": 9\n}")
	if !bytes.Equal(canonical(o, a), canonical(o, b)) {
		t.Errorf("timing fields survive: %s vs %s", canonical(o, a), canonical(o, b))
	}
	c := bytes.Replace(b, []byte("9\n"), []byte("8\n"), 1)
	if bytes.Equal(canonical(o, b), canonical(o, c)) {
		t.Error("a non-timing field was zeroed")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkReport checks a smoke run: no failed op, and exactly the metrics
// BENCHMARK.json lists, with valid names and the listed units.
func checkReport(t *testing.T, name string, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if rep.Attempted == 0 || rep.Failed != 0 || !rep.Correct {
		t.Errorf("%s: attempted %d, failed %d, correct %v", name, rep.Attempted, rep.Failed, rep.Correct)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", name, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		rep, err := runTimed(w, fixtureSeed, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, w.name, rep, spec.EndToEnd)
		if v := rep.Metrics["heap_live_mb"].Value; v <= 0 {
			t.Errorf("%s: heap_live_mb %g, want positive", w.name, v)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced layer passes")
	}
	spec := loadSpec(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	w, err := lookup("solve-warm")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTraced(w, 2, 1, spans)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "traced "+w.name, rep, spec.PerLayer)
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
