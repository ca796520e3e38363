// Command expsweep scales an expbench suite across a worker fleet without
// changing what it computes. A coordinator decomposes the suite into work
// units (one experiment each), serves them over the /v1/work endpoints with
// heartbeat-extended leases, journals completions to a checkpoint file, and
// prints the merged registry-order report — byte-identical to what a local
// `expbench -exp ...` run would have written to stdout. Workers are thin
// loops over the same experiment registry; pointing the fleet at a shared
// -cache-dir makes every placement solve compute exactly once fleet-wide.
//
// Coordinator (also runs -workers in-process executors):
//
//	expsweep -exp all -quick -workers 2 -journal sweep.jnl -cache-dir /tmp/pl
//	expsweep -exp fig5,fig11 -addr 127.0.0.1:8352 -workers 0   # remote-only
//
// Worker (connects to a coordinator's HTTP surface):
//
//	expsweep -worker -connect http://127.0.0.1:8352 -cache-dir /tmp/pl
//
// Fault tolerance: a worker killed mid-unit stops heartbeating and its lease
// is re-issued after -lease-ttl; a coordinator killed mid-suite restarts
// from -journal with only the unfinished units re-leased ("resumed N/M
// units" on stderr). Results, progress and cache statistics go to stderr;
// stdout carries only the merged report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/fabric"
	"explink/internal/obs"
	"explink/internal/runctl"
	"explink/internal/serve"
	"explink/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		// Coordinator-side flags (mirror expbench where they overlap).
		which    = flag.String("exp", "all", "experiments to sweep: all, or a comma-separated list")
		quick    = flag.Bool("quick", false, "reduced budgets for a fast smoke run")
		seed     = flag.Uint64("seed", 1, "random seed")
		replicas = flag.Int("replicas", 1, "seed replicas per simulated operating point")
		jsonOut  = flag.Bool("json", false, "emit structured JSON results (a JSON array on stdout instead of text)")
		journal  = flag.String("journal", "", "checkpoint completed units to this file; a restarted coordinator resumes from it")
		addr     = flag.String("addr", "", "serve /v1/work to remote workers on this address (empty = in-process workers only)")
		workers  = flag.Int("workers", 1, "in-process workers to run alongside the coordinator (0 = remote workers only)")
		leaseTTL = flag.Duration("lease-ttl", 15*time.Second, "how long a lease survives without a heartbeat before its unit is re-issued")

		// Worker-side flags.
		workerMode = flag.Bool("worker", false, "run as a worker: lease units from -connect until the suite is done")
		connect    = flag.String("connect", "", "coordinator base URL for -worker (e.g. http://127.0.0.1:8352)")
		workerID   = flag.String("id", "", "worker id reported in leases (default host:pid)")

		// Shared flags.
		cacheDir = flag.String("cache-dir", "", "persist placement solves under this directory; share it across the fleet to deduplicate solves")
		progress = flag.Bool("progress", false, "emit JSON-lines lifecycle events on stderr")
	)
	flag.Parse()
	if err := api.ValidateReplicas(*replicas); err != nil {
		fmt.Fprintf(os.Stderr, "expsweep: -replicas: %v\n", err)
		return 1
	}

	// Ctrl-C / SIGTERM drains: workers complete their in-flight unit as
	// cancelled (the coordinator re-queues it) and exit; a coordinator
	// reports whatever finished and leaves the journal ready for resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	store, err := core.NewPlacementStore(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expsweep: %v\n", err)
		return 1
	}
	var events *obs.EventWriter
	if *progress {
		events = obs.NewEventWriter(os.Stderr)
	}

	if *workerMode {
		return runWorker(ctx, *connect, *workerID, store, events)
	}
	return runCoordinator(ctx, coordinatorConfig{
		which: *which, quick: *quick, seed: *seed, replicas: *replicas,
		jsonOut: *jsonOut, journal: *journal, addr: *addr,
		workers: *workers, leaseTTL: *leaseTTL,
	}, store, events)
}

// runWorker is the -worker entry: lease-run-complete against a remote
// coordinator until the suite is done (exit 0), the process is drained
// (exit 0 — the in-flight unit was handed back as cancelled), or the
// coordinator stays unreachable (exit 1).
func runWorker(ctx context.Context, connect, id string, store *core.PlacementStore, events *obs.EventWriter) int {
	if connect == "" {
		fmt.Fprintln(os.Stderr, "expsweep: -worker requires -connect")
		return 1
	}
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := &fabric.Worker{
		Client: &fabric.HTTPClient{Base: connect},
		ID:     id,
		Store:  store,
		Events: events,
	}
	err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "expsweep: worker %s: placement cache: %s\n", id, store.Counters())
	switch {
	case err == nil:
		return 0
	case errors.Is(err, runctl.ErrCancelled) && ctx.Err() != nil:
		return 0 // signal-initiated drain is a clean exit
	default:
		fmt.Fprintf(os.Stderr, "expsweep: worker %s: %v\n", id, err)
		return 1
	}
}

type coordinatorConfig struct {
	which    string
	quick    bool
	seed     uint64
	replicas int
	jsonOut  bool
	journal  string
	addr     string
	workers  int
	leaseTTL time.Duration
}

// runCoordinator owns one campaign: build the suite, resume from the
// journal, serve remote workers and/or run local ones, then render the
// merged outcomes exactly as a local expbench run would have.
func runCoordinator(ctx context.Context, cfg coordinatorConfig, store *core.PlacementStore, events *obs.EventWriter) int {
	suite, err := fabric.SuiteOf(strings.Split(cfg.which, ","), cfg.quick, cfg.seed, cfg.replicas)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expsweep: %v\n", err)
		return 1
	}
	if cfg.workers <= 0 && cfg.addr == "" {
		fmt.Fprintln(os.Stderr, "expsweep: nothing would execute units: need -workers >= 1 or -addr for remote workers")
		return 1
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Suite:       suite,
		JournalPath: cfg.journal,
		LeaseTTL:    cfg.leaseTTL,
		Events:      events,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "expsweep: %v\n", err)
		return 1
	}
	defer coord.Close()
	if n := coord.Resumed(); n > 0 {
		fmt.Fprintf(os.Stderr, "expsweep: resumed %d/%d units from %s\n", n, len(suite.Experiments), cfg.journal)
	}

	// Remote-worker surface: a full serve.Server with the coordinator
	// mounted at /v1/work (the solve/eval/sim endpoints ride along for
	// free, sharing the same store).
	if cfg.addr != "" {
		srv := serve.New(serve.Config{Store: store, Events: events, Coordinator: coord})
		ln, err := net.Listen("tcp", cfg.addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expsweep: %v\n", err)
			return 1
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "expsweep: serving work units on http://%s\n", ln.Addr())
	}

	// In-process workers drive the coordinator directly — same protocol, no
	// HTTP hop — and share the process-wide store.
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		w := &fabric.Worker{
			Client: coord,
			ID:     fmt.Sprintf("local-%d", i),
			Store:  store,
			Events: events,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, runctl.ErrCancelled) {
				fmt.Fprintf(os.Stderr, "expsweep: %v\n", err)
			}
		}()
	}

	waitErr := coord.WaitDone(ctx)
	wg.Wait()
	if waitErr != nil && cfg.journal != "" {
		fmt.Fprintf(os.Stderr, "expsweep: interrupted; resume with the same flags and -journal %s\n", cfg.journal)
	}

	outcomes, err := coord.Outcomes()
	if err != nil {
		fmt.Fprintf(os.Stderr, "expsweep: %v\n", err)
		return 1
	}
	return render(outcomes, cfg.jsonOut, store)
}

// render prints merged outcomes with expbench's exact stdout format, so a
// sweep's report is byte-comparable against a local run.
func render(outcomes []exp.Outcome, jsonOut bool, store *core.PlacementStore) int {
	failed := 0
	var reports []*stats.Report
	for _, oc := range outcomes {
		if oc.Err != nil {
			failed++
			msg := "expsweep %s: %v\n"
			if errors.Is(oc.Err, runctl.ErrCancelled) {
				msg = "expsweep %s: interrupted: %v\n"
			}
			fmt.Fprintf(os.Stderr, msg, oc.Exp.Name, oc.Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "expsweep: %s finished in %.1fs\n", oc.Exp.Name, oc.Elapsed.Seconds())
		reports = append(reports, oc.Rep)
		if !jsonOut {
			fmt.Printf("### %s — %s\n\n%s\n", oc.Exp.Name, oc.Exp.Desc, oc.Rep.Render())
		}
	}
	if jsonOut {
		buf, err := stats.ReportsJSON(reports)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expsweep: %v\n", err)
			return 1
		}
		os.Stdout.Write(buf)
	}
	fmt.Fprintf(os.Stderr, "expsweep: placement cache: %s\n", store.Counters())
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "expsweep: %d of %d experiments failed\n", failed, len(outcomes))
		return 1
	}
	return 0
}
