// Command explink optimizes express-link placement for an n x n mesh NoC
// under a bisection-bandwidth budget, the end-to-end flow of the paper.
//
// Usage:
//
//	explink -n 8                  # sweep all feasible C, print the best design
//	explink -n 8 -c 4             # solve one link limit
//	explink -n 8 -algo OnlySA     # ablation: SA from a random start
//	explink -n 8 -json            # machine-readable output
//	explink -n 8 -diagram         # ASCII picture of the placement
//	explink -n 8 -power           # sim-free power report for the best design
//	explink -n 8 -pareto          # multi-objective placement frontier
//	explink -n 8 -pareto -objectives latency,power
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"explink/internal/anneal"
	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/obs"
	"explink/internal/power"
	"explink/internal/route"
	"explink/internal/sim"
	"explink/internal/stats"
	"explink/internal/topo"
	"explink/internal/traffic"
)

func main() {
	var (
		n       = flag.Int("n", 8, "network size (n x n routers)")
		c       = flag.Int("c", 0, "link limit C; 0 sweeps all feasible values")
		algo    = flag.String("algo", "D&C_SA", "placement algorithm: D&C_SA, OnlySA or InitOnly")
		seed    = flag.Uint64("seed", 1, "random seed")
		moves   = flag.Int("moves", 0, "override SA move budget (0 keeps the paper's 10^4)")
		base    = flag.Int("base", 256, "link width in bits the bisection budget affords at C=1")
		jsonOut = flag.Bool("json", false, "emit JSON instead of tables")
		diagram = flag.Bool("diagram", false, "print an ASCII diagram of the chosen row placement")
		matrix  = flag.Bool("matrix", false, "print the connection matrix of the chosen placement")
		tables  = flag.Bool("tables", false, "print the per-router routing tables (Fig. 3b)")
		timeout = flag.Duration("timeout", 0, "abort the optimization after this wall-clock duration (0 = no limit)")
		audit   = flag.Bool("audit", false, "self-check the chosen design with a short audited simulation")
		pareto  = flag.Bool("pareto", false, "solve the multi-objective placement frontier instead of one best design")
		objs    = flag.String("objectives", "latency,power,wiring", "comma-separated frontier dimensions for -pareto")
		archive = flag.Int("archive", 0, "bound the per-C non-dominated archive for -pareto (0 = annealer default)")
		powerRe = flag.Bool("power", false, "print the sim-free power report (static + wiring breakdown) for the solved placement")
		debug   = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	if *debug != "" {
		reg := obs.NewRegistry()
		sim.EnableMetrics(reg)
		anneal.EnableMetrics(reg)
		core.EnableMetrics(reg)
		srv, err := obs.ServeDebug(*debug, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "explink: debug server listening on http://%s\n", srv.Addr)
	}

	// Ctrl-C / SIGTERM cancels the optimization through the runctl taxonomy
	// instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *pareto {
		runPareto(ctx, *n, *c, *objs, *seed, *moves, *base, *archive, *jsonOut)
		return
	}

	// The flags map 1:1 onto the service request schema; the solve (and the
	// -json encoding below) runs through the same internal/api path as the
	// explinkd daemon, so the two emit byte-identical documents. Normalize
	// maps -seed 0 and -base 0 to the defaults, as the daemon does.
	req := api.SolveRequest{N: *n, C: *c, Algo: *algo, Seed: *seed, Moves: *moves, BaseWidth: *base}
	req.Normalize()
	if err := req.Validate(); err != nil {
		fatal(err)
	}
	s, err := req.Solver(nil)
	if err != nil {
		fatal(err)
	}
	cfg := s.Cfg
	best, all, err := req.Solve(ctx, nil)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := api.NewSolveResponse(best, all).Encode(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	t := stats.NewTable(fmt.Sprintf("%s placement for %dx%d (base width %db)", req.Algo, *n, *n, req.BaseWidth),
		"C", "width(b)", "L_D", "L_S", "L_avg", "evals", "express links")
	for _, sol := range all {
		t.AddRowf(sol.C, sol.Eval.Width, sol.Eval.Head, sol.Eval.Ser, sol.Eval.Total, sol.Evals, sol.Row.String())
	}
	fmt.Print(t.String())
	mesh, err := cfg.EvalRow(topo.MeshRow(*n), 1)
	if err == nil && mesh.Total > 0 {
		fmt.Printf("\nbest: C=%d  L_avg=%.2f cycles  (%.1f%% below the mesh's %.2f)\n",
			best.C, best.Eval.Total, 100*(1-best.Eval.Total/mesh.Total), mesh.Total)
	}
	if *powerRe {
		// The same sim-free evaluator the frontier's power/wiring dimensions
		// use, applied to the single chosen design.
		cost := power.DefaultModel().PlacementCost(best.Row, best.Eval.Width)
		fmt.Printf("\npower: %s\n", cost)
	}
	if *diagram {
		fmt.Printf("\n%s\n", best.Row.Diagram())
	}
	if *matrix {
		m, err := topo.MatrixFromRow(best.Row, best.C)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s", m.String())
	}
	if *tables {
		fmt.Printf("\n%s", route.FormatTables(best.Row, cfg.Params.Route()))
	}
	if *audit {
		// Self-verification: replay a short uniform-random workload through
		// the chosen design with the invariant auditor enabled; any engine or
		// placement inconsistency fails loudly instead of skewing results.
		sc := sim.NewConfig(s.Topology(best), best.C, traffic.UniformRandom(*n), 0.02)
		sc.Seed = req.Seed
		sc.Warmup, sc.Measure, sc.Drain = 500, 2000, 10000
		sc.Audit = true
		simr, err := sim.New(sc)
		if err != nil {
			fatal(err)
		}
		res, err := simr.Run(ctx)
		if err != nil {
			fatal(fmt.Errorf("audit simulation: %w", err))
		}
		fmt.Printf("\naudit: %d cycles simulated with all invariants holding (lat=%.2f cycles)\n",
			res.Cycles, res.AvgPacketLatency)
	}
}

// runPareto is the -pareto flow: the frontier counterpart of the scalar
// solve, running through the same api.ParetoRequest path as the daemon's
// /v1/pareto endpoint so `-json` output is byte-identical by construction.
func runPareto(ctx context.Context, n, c int, objectives string, seed uint64, moves, base, archive int, jsonOut bool) {
	req := api.ParetoRequest{N: n, C: c, Objectives: splitObjectives(objectives), Seed: seed, Moves: moves, BaseWidth: base, ArchiveCap: archive}
	req.Normalize()
	if err := req.Validate(); err != nil {
		fatal(err)
	}
	f, err := req.Solve(ctx, nil)
	if err != nil {
		fatal(err)
	}

	if jsonOut {
		if err := api.NewParetoResponse(f).Encode(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	dims := make([]string, len(f.Objectives))
	for i, o := range f.Objectives {
		dims[i] = string(o)
	}
	labels := make([]string, len(f.Entries))
	points := make([][]float64, len(f.Entries))
	for i, e := range f.Entries {
		labels[i] = fmt.Sprintf("C=%d %s", e.C, e.Row.String())
		points[i] = e.Objs
	}
	t := stats.FrontierTable(fmt.Sprintf("Pareto frontier for %dx%d (base width %db)", n, n, base),
		dims, labels, points)
	fmt.Print(t.String())
	fmt.Printf("\n%d non-dominated placements, %d evaluations\n", len(f.Entries), f.Evals)
}

// splitObjectives turns the -objectives flag into the request's list form; a
// blank flag means core's all-dimensions default.
func splitObjectives(arg string) []string {
	if strings.TrimSpace(arg) == "" {
		return nil
	}
	return strings.Split(arg, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explink:", err)
	os.Exit(1)
}
