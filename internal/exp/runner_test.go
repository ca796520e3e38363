package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"explink/internal/core"
	"explink/internal/obs"
	"explink/internal/runctl"
	"explink/internal/stats"
)

func mustLookup(t *testing.T, names ...string) []Experiment {
	t.Helper()
	sel := make([]Experiment, 0, len(names))
	for _, name := range names {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("unknown experiment %q", name)
		}
		sel = append(sel, e)
	}
	return sel
}

// The runner keeps results in registry order, shares one placement store
// across experiments, and reports per-experiment errors without dropping the
// successes.
func TestRunAllOrderAndCache(t *testing.T) {
	sel := mustLookup(t, "fig5", "table2")
	store, err := core.NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Quick: true, Seed: 1}
	opts.Store = store
	results := RunAll(context.Background(), sel, opts, 2, nil)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, oc := range results {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Exp.Name, oc.Err)
		}
		if oc.Exp.Name != sel[i].Name || oc.Rep.Name != sel[i].Name {
			t.Fatalf("slot %d holds %s/%s, want %s", i, oc.Exp.Name, oc.Rep.Name, sel[i].Name)
		}
		if !strings.Contains(oc.Rep.Render(), "==") {
			t.Fatalf("%s: suspicious render", oc.Exp.Name)
		}
	}
	c := store.Counters()
	if c.Solves == 0 {
		t.Fatal("no solves recorded")
	}
	// fig5 and table2 sweep the same link limits on the same sizes: the
	// second experiment must reuse the first one's solves.
	if c.Hits == 0 {
		t.Fatalf("experiments did not share the cache: %v", c)
	}
}

func TestRunAllCancelled(t *testing.T) {
	sel := mustLookup(t, "fig5")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := RunAll(ctx, sel, Options{Quick: true, Seed: 1}, 1, nil)
	if results[0].Err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(results[0].Err, runctl.ErrCancelled) {
		t.Fatalf("error not in the cancellation taxonomy: %v", results[0].Err)
	}
}

// RunAll publishes scheduling counters and emits a parseable event stream:
// suite.start, one start/finish pair per experiment, suite.finish.
func TestRunAllMetricsAndEvents(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	var buf bytes.Buffer
	ev := obs.NewEventWriter(&buf)
	sel := mustLookup(t, "table2")
	results := RunAll(context.Background(), sel, Options{Quick: true, Seed: 1}, 1, ev)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"exp_started_total":  1,
		"exp_finished_total": 1,
		"exp_failed_total":   0,
		"exp_inflight":       0,
		"exp_queued":         0,
		"exp_run_total":      1,
		"exp_suite_total":    1,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d event lines, want 4:\n%s", len(lines), buf.String())
	}
	var seq []string
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable event %q: %v", line, err)
		}
		seq = append(seq, m["event"].(string))
	}
	want := []string{"suite.start", "experiment.start", "experiment.finish", "suite.finish"}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("event sequence = %v, want %v", seq, want)
		}
	}
}

// TestRunAllCancelledZeroRuns pins the cancellation contract: with the suite
// context already dead, RunAll must fail every experiment quickly without
// calling a single Run — no worker slot may be spent starting work the
// caller no longer wants. This is the fast-drain path the sweep fabric's
// workers rely on.
func TestRunAllCancelledZeroRuns(t *testing.T) {
	var runs atomic.Int64
	sel := make([]Experiment, 8)
	for i := range sel {
		sel[i] = Experiment{
			Name: fmt.Sprintf("fake%d", i),
			Run: func(Options) (*stats.Report, error) {
				runs.Add(1)
				return stats.NewReport("fake"), nil
			},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := RunAll(ctx, sel, Options{}, 2, nil)
	if got := runs.Load(); got != 0 {
		t.Fatalf("%d experiments ran after cancel, want 0", got)
	}
	for i, oc := range results {
		if oc.Err == nil || !errors.Is(oc.Err, runctl.ErrCancelled) {
			t.Fatalf("slot %d: error %v, want ErrCancelled", i, oc.Err)
		}
		if oc.Exp.Name != sel[i].Name {
			t.Fatalf("slot %d holds %s, want %s", i, oc.Exp.Name, sel[i].Name)
		}
	}
}

// A cancel landing mid-suite fails everything still queued without starting
// it: only the experiments that held a slot before the cancel ever run, and
// the scheduling gauges return to zero.
func TestRunAllCancelMidSuiteDrainsQueueFast(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	ctx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int64
	release := make(chan struct{})
	running := make(chan struct{}, 16)
	sel := make([]Experiment, 6)
	for i := range sel {
		sel[i] = Experiment{
			Name: fmt.Sprintf("fake%d", i),
			Run: func(Options) (*stats.Report, error) {
				runs.Add(1)
				running <- struct{}{}
				<-release
				return stats.NewReport("fake"), nil
			},
		}
	}
	done := make(chan []Outcome, 1)
	go func() { done <- RunAll(ctx, sel, Options{}, 2, nil) }()
	<-running
	<-running // both slots busy, four experiments queued
	cancel()
	close(release)
	results := <-done
	if got := runs.Load(); got != 2 {
		t.Fatalf("%d experiments ran, want exactly the 2 in flight at cancel", got)
	}
	cancelled := 0
	for _, oc := range results {
		if oc.Err != nil && errors.Is(oc.Err, runctl.ErrCancelled) {
			cancelled++
		}
	}
	if cancelled < 4 {
		t.Fatalf("%d experiments cancelled, want at least the 4 queued", cancelled)
	}
	snap := reg.Snapshot()
	for _, g := range []string{"exp_queued", "exp_inflight"} {
		if v := snap[g]; v != 0 {
			t.Fatalf("%s = %v after suite end, want 0", g, v)
		}
	}
}
