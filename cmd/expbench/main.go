// Command expbench regenerates the paper's evaluation: every figure and
// table of Section 5, printed as plain-text tables whose rows/series match
// what the paper plots. Experiments come from the declarative registry in
// internal/exp; every placement solve is routed through a shared
// content-addressed cache, so a suite run computes each distinct placement
// exactly once and a warm -cache-dir run skips annealing entirely with
// bit-identical output.
//
// Usage:
//
//	expbench                        # run everything at full fidelity
//	expbench -exp fig5,fig11        # a comma-separated subset (see -list)
//	expbench -quick                 # reduced budgets (seconds instead of minutes)
//	expbench -json                  # structured JSON results instead of text
//	expbench -cache-dir .explink    # persist placement solves across runs
//	expbench -debug-addr :6060      # live /metrics, /debug/vars and pprof
//	expbench -progress run.jsonl    # JSON-lines progress events
//
// Progress, timings and cache statistics go to stderr; stdout carries only
// the results, so runs with identical inputs produce byte-identical stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"explink/internal/anneal"
	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/obs"
	"explink/internal/runctl"
	"explink/internal/sim"
	"explink/internal/stats"
)

// selectExperiments resolves the -exp argument ("all" or a comma-separated
// name list) through the shared service-layer selector, so the flag and the
// daemon's /v1/exp endpoint accept exactly the same names.
func selectExperiments(arg string) ([]exp.Experiment, error) {
	return api.SelectExperiments(strings.Split(arg, ","))
}

// validateParallel rejects a non-positive -parallel at parse time with a
// config-typed error; the silent upper clamp to GOMAXPROCS stays separate
// because over-asking is harmless while zero workers would deadlock.
func validateParallel(p int) error {
	if p < 1 {
		return fmt.Errorf("-parallel %d must be at least 1: %w", p, runctl.ErrConfig)
	}
	return nil
}

// progressWriter opens the -progress destination: "-" or "stderr" select
// stderr, anything else is created (truncated) as a file. The returned closer
// is a no-op for stderr.
func progressWriter(dest string) (io.Writer, func() error, error) {
	switch dest {
	case "-", "stderr":
		return os.Stderr, func() error { return nil }, nil
	default:
		f, err := os.Create(dest)
		if err != nil {
			return nil, nil, err
		}
		return f, f.Close, nil
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		which    = flag.String("exp", "all", "experiments to run: all, or a comma-separated list (see -list)")
		quick    = flag.Bool("quick", false, "reduced budgets for a fast smoke run")
		seed     = flag.Uint64("seed", 1, "random seed")
		replicas = flag.Int("replicas", 1, "seed replicas per simulated operating point (batched engine; 1 = single seed)")
		list     = flag.Bool("list", false, "list experiments and exit")
		outDir   = flag.String("out", "", "also write each experiment's output to <dir>/<name>.txt (and .json with -json)")
		timeout  = flag.Duration("timeout", 0, "abort the whole suite after this wall-clock duration (0 = no limit)")
		audit    = flag.Bool("audit", false, "run every simulation with the per-cycle invariant auditor enabled")
		jsonOut  = flag.Bool("json", false, "emit structured JSON results (a JSON array on stdout instead of text)")
		cacheDir = flag.String("cache-dir", "", "persist placement solves under this directory; a warm run re-solves nothing")
		parallel = flag.Int("parallel", 1, "run up to this many experiments concurrently (results still print in order)")
		debug    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
		progress = flag.String("progress", "", "write JSON-lines progress events to this file (\"-\" for stderr)")
	)
	flag.Parse()

	if err := validateParallel(*parallel); err != nil {
		fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
		return 1
	}
	if err := api.ValidateReplicas(*replicas); err != nil {
		fmt.Fprintf(os.Stderr, "expbench: -replicas: %v\n", err)
		return 1
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-11s %-22s %s\n", e.Name, e.Section, e.Desc)
		}
		return 0
	}

	sel, err := selectExperiments(*which)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
		return 1
	}

	// Ctrl-C / SIGTERM cancels the run context: in-flight solves and
	// simulations fail with runctl.ErrCancelled, finished experiments still
	// print, and the exit code is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	store, err := core.NewPlacementStore(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
		return 1
	}

	if *debug != "" {
		reg := obs.NewRegistry()
		sim.EnableMetrics(reg)
		anneal.EnableMetrics(reg)
		core.EnableMetrics(reg)
		exp.EnableMetrics(reg)
		store.Register(reg)
		srv, err := obs.ServeDebug(*debug, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "expbench: debug server listening on http://%s\n", srv.Addr)
	}

	var events *obs.EventWriter
	if *progress != "" {
		w, closeFn, err := progressWriter(*progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
			return 1
		}
		defer closeFn()
		events = obs.NewEventWriter(w)
	}

	opts := exp.DefaultOptions()
	opts.Quick = *quick
	opts.Seed = *seed
	opts.Audit = *audit
	opts.Store = store
	opts.Replicas = *replicas

	if *parallel > runtime.GOMAXPROCS(0) {
		*parallel = runtime.GOMAXPROCS(0)
	}
	results := exp.RunAll(ctx, sel, opts, *parallel, events)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
			return 1
		}
	}

	failed := 0
	var reports []*stats.Report
	for _, oc := range results {
		if oc.Err != nil {
			failed++
			msg := "expbench %s: %v\n"
			if errors.Is(oc.Err, runctl.ErrCancelled) {
				msg = "expbench %s: interrupted: %v\n"
			}
			fmt.Fprintf(os.Stderr, msg, oc.Exp.Name, oc.Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "expbench: %s finished in %.1fs\n", oc.Exp.Name, oc.Elapsed.Seconds())
		reports = append(reports, oc.Rep)
		text := oc.Rep.Render()
		if !*jsonOut {
			fmt.Printf("### %s — %s\n\n%s\n", oc.Exp.Name, oc.Exp.Desc, text)
		}
		if *outDir != "" {
			if err := os.WriteFile(filepath.Join(*outDir, oc.Exp.Name+".txt"), []byte(text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
				return 1
			}
			if *jsonOut {
				buf, err := oc.Rep.JSON()
				if err != nil {
					fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
					return 1
				}
				if err := os.WriteFile(filepath.Join(*outDir, oc.Exp.Name+".json"), buf, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
					return 1
				}
			}
		}
	}
	if *jsonOut {
		buf, err := stats.ReportsJSON(reports)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expbench: %v\n", err)
			return 1
		}
		os.Stdout.Write(buf)
	}

	fmt.Fprintf(os.Stderr, "expbench: placement cache: %s\n", store.Counters())
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "expbench: %d of %d experiments failed\n", failed, len(results))
		return 1
	}
	return 0
}
