// Command expsim runs the cycle-accurate NoC simulator on a chosen topology,
// traffic pattern and injection rate, printing latency, throughput,
// contention and power estimates.
//
// Usage:
//
//	expsim -n 8 -topo mesh -pattern UR -rate 0.02
//	expsim -n 8 -topo dcsa -pattern canneal            # PARSEC proxy
//	expsim -n 8 -topo hfb -pattern TP -saturate        # throughput search
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"explink/internal/anneal"
	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/model"
	"explink/internal/obs"
	"explink/internal/power"
	"explink/internal/sim"
	"explink/internal/topo"
	"explink/internal/traffic"
)

func main() {
	var (
		n        = flag.Int("n", 8, "network size (n x n)")
		topoName = flag.String("topo", "mesh", "topology: mesh, hfb, fb, or dcsa (optimized placement)")
		pattern  = flag.String("pattern", "UR", "traffic: UR, TP, BR, BC, SH, TOR, NBR, hotspot, or a PARSEC name")
		rate     = flag.Float64("rate", 0.02, "injection rate (packets/node/cycle)")
		seed     = flag.Uint64("seed", 1, "random seed")
		warmup   = flag.Int("warmup", 2000, "warmup cycles")
		measure  = flag.Int("measure", 10000, "measurement cycles")
		drain    = flag.Int("drain", 40000, "max drain cycles")
		saturate = flag.Bool("saturate", false, "search for the saturation throughput instead of a single run")
		replicas = flag.Int("replicas", 1, "run this many seed replicas on the batched engine and report the aggregate")
		showPow  = flag.Bool("power", true, "print the power estimate")
		heatmap  = flag.Bool("heatmap", false, "print the per-router link-utilization heatmap after the run")
		saveTr   = flag.String("savetrace", "", "record the workload and write it as JSON to this file")
		loadTr   = flag.String("loadtrace", "", "replay a JSON trace instead of generating traffic")
		timeout  = flag.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = no limit)")
		audit    = flag.Bool("audit", false, "run with the per-cycle invariant auditor enabled")
		debug    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
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
		fmt.Fprintf(os.Stderr, "expsim: debug server listening on http://%s\n", srv.Addr)
	}

	// Fail fast on malformed run-shape flags with the same runctl.ErrConfig
	// classification the daemon applies to request bodies; downstream code
	// would otherwise tolerate some of these (a zero -measure divides
	// throughput by zero, -replicas 0 silently means one).
	if err := api.ValidateSimParams(*warmup, *measure, *drain, *replicas, *rate); err != nil {
		fatal(err)
	}

	if *saturate && *loadTr != "" {
		// A trace fixes the injection schedule, so there is no offered rate to
		// sweep; silently ignoring one flag would misreport the other.
		fatal(fmt.Errorf("-saturate and -loadtrace are mutually exclusive: a replayed trace has a fixed injection schedule"))
	}

	// Ctrl-C / SIGTERM cancels the simulation through the runctl taxonomy
	// instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	tp, c, err := buildTopo(ctx, *topoName, *n, *seed)
	if err != nil {
		fatal(err)
	}
	pat, prate, err := buildPattern(*pattern, *n, *rate)
	if err != nil {
		fatal(err)
	}

	cfg := sim.NewConfig(tp, c, pat, prate)
	cfg.Seed = *seed
	cfg.Warmup, cfg.Measure, cfg.Drain = *warmup, *measure, *drain
	cfg.Audit = *audit
	if *saveTr != "" {
		cfg.RecordTrace = true
	}
	if *loadTr != "" {
		f, err := os.Open(*loadTr)
		if err != nil {
			fatal(err)
		}
		tr, err := sim.LoadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		tr.Name = filepath.Base(*loadTr)
		cfg.Trace = tr
		cfg.Pattern = nil
		cfg.InjectionRate = 0
		fmt.Printf("replaying trace %s (%d packets) on %s\n", tr.Name, len(tr.Entries), tp.Name)
	}

	if *replicas > 1 && *saveTr != "" {
		// Trace recording is per-simulator; with several replicas there is no
		// single workload to save.
		fatal(fmt.Errorf("-savetrace needs a single run; drop -replicas or set it to 1"))
	}

	if *saturate {
		satOpts := sim.DefaultSaturationOpts()
		satOpts.Replicas = *replicas
		sweep, err := sim.FindSaturation(ctx, cfg, satOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("topology %s, pattern %s:\n", tp.Name, pat.Name())
		for _, p := range sweep.Points {
			fmt.Printf("  rate %.4f: latency %.2f, accepted %.4f pkt/node/cy, drained=%v\n",
				p.Rate, p.Result.AvgPacketLatency, p.Result.ThroughputPackets, p.Result.Drained)
		}
		fmt.Printf("saturation throughput: %.4f packets/node/cycle (at offered %.4f)\n",
			sweep.Saturation, sweep.SatRate)
		fmt.Printf("simulated %d cycles in %v (%.0f cycles/sec)\n",
			sweep.SimCycles, sweep.WallTime.Round(time.Millisecond), sweep.CyclesPerSec)
		return
	}

	// A single run is a batch of one replica.
	b, err := sim.NewBatch(cfg, sim.ReplicaSeeds(cfg.Seed, *replicas))
	if err != nil {
		fatal(err)
	}
	results, agg, err := b.Run(ctx, 0)
	if err != nil {
		fatal(err)
	}
	s := b.Replicas()[0]
	if *replicas > 1 {
		res := sim.AggregateReplicas(results)
		fmt.Println(res.String())
		fmt.Printf("  p95=%d p99=%d max=%d cycles, measured packets=%d (across %d replicas)\n",
			res.P95Latency, res.P99Latency, res.MaxLatency, res.MeasuredPackets, *replicas)
		for i, r := range results {
			fmt.Printf("  replica %d: latency %.2f, accepted %.4f pkt/node/cy, drained=%v\n",
				i, r.AvgPacketLatency, r.ThroughputPackets, r.Drained)
		}
		fmt.Printf("  simulated %s\n", agg)
		if *heatmap {
			fmt.Print(s.UtilizationHeatmap())
		}
		return
	}

	res := results[0]
	fmt.Println(res.String())
	fmt.Printf("  p95=%d p99=%d max=%d cycles, measured packets=%d\n",
		res.P95Latency, res.P99Latency, res.MaxLatency, res.MeasuredPackets)
	fmt.Printf("  simulated %d cycles in %v (%.0f cycles/sec)\n",
		res.Cycles, res.WallTime.Round(time.Millisecond), res.CyclesPerSec)
	if *showPow {
		w, err := model.DefaultBandwidth().Width(c)
		if err == nil {
			rep, perr := power.DefaultModel().Estimate(tp, w, res)
			if perr == nil {
				fmt.Println("  " + rep.String())
				if e, eerr := power.DefaultModel().EnergyOf(rep, res); eerr == nil {
					fmt.Println("  " + e.String())
				}
			}
		}
	}
	if *heatmap {
		fmt.Print(s.UtilizationHeatmap())
	}
	if *saveTr != "" {
		f, err := os.Create(*saveTr)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := s.RecordedTrace().Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace with %d packets written to %s\n",
			res.Counts.PacketsInjected, *saveTr)
	}
}

// buildTopo and buildPattern are thin aliases over the shared service-layer
// builders (internal/api), kept so the CLI reads naturally; the daemon's
// /v1/sim endpoint resolves names through exactly the same code.
func buildTopo(ctx context.Context, name string, n int, seed uint64) (topo.Topology, int, error) {
	return api.BuildTopology(ctx, name, n, seed, nil)
}

func buildPattern(name string, n int, rate float64) (traffic.Pattern, float64, error) {
	return api.BuildPattern(name, n, rate)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "expsim:", err)
	os.Exit(1)
}
