// Command explinkd is the placement-as-a-service daemon: the solver,
// evaluator, cycle simulator and experiment suite of the repo served from
// one long-running process over HTTP/JSON (default) or JSON-lines on
// stdin/stdout (-stdio, the external-timing-engine protocol).
//
// Hot placement queries answer from the shared placement store; concurrent
// cold requests for the same placement are single-flighted into one solve.
// SIGINT/SIGTERM drains gracefully: the daemon stops admitting (new work
// gets 503 "draining"), cancels in-flight runs so they return partial
// results with Truncated reasons, waits up to -drain-timeout, and exits 0.
//
//	explinkd -addr 127.0.0.1:8351 -cache-dir /tmp/placements
//	curl -s localhost:8351/v1/solve -d '{"n":8,"c":5}'
//	echo '{"id":1,"op":"eval","req":{"n":8,"c":2,"express":[{"s":0,"e":7}]}}' | explinkd -stdio
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"explink/internal/anneal"
	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/obs"
	"explink/internal/serve"
	"explink/internal/sim"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8351", "HTTP listen address")
		stdio        = flag.Bool("stdio", false, "serve JSON-lines on stdin/stdout instead of HTTP")
		cacheDir     = flag.String("cache-dir", "", "persist placement solves under this directory (empty = memory-only)")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently running requests (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("queue", 64, "max requests waiting for a slot before 503 (negative = no queue)")
		rate         = flag.Float64("ratelimit", 0, "per-client requests per second (0 = unlimited)")
		burst        = flag.Int("burst", 8, "per-client burst allowance for -ratelimit")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		debugAddr    = flag.String("debug-addr", "", "also serve /metrics + pprof on this address")
		progress     = flag.Bool("progress", false, "emit JSON-lines lifecycle events on stderr")
	)
	flag.Parse()
	if err := run(*addr, *stdio, *cacheDir, *maxInflight, *maxQueue, *rate, *burst, *drainTimeout, *debugAddr, *progress); err != nil {
		fmt.Fprintln(os.Stderr, "explinkd:", err)
		os.Exit(1)
	}
}

func run(addr string, stdio bool, cacheDir string, maxInflight, maxQueue int, rate float64, burst int, drainTimeout time.Duration, debugAddr string, progress bool) error {
	store, err := core.NewPlacementStore(cacheDir)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	sim.EnableMetrics(reg)
	anneal.EnableMetrics(reg)
	core.EnableMetrics(reg)
	exp.EnableMetrics(reg)
	defer func() {
		sim.EnableMetrics(nil)
		anneal.EnableMetrics(nil)
		core.EnableMetrics(nil)
		exp.EnableMetrics(nil)
	}()
	var ev *obs.EventWriter
	if progress {
		ev = obs.NewEventWriter(os.Stderr)
	}
	srv := serve.New(serve.Config{
		Store:       store,
		MaxInflight: maxInflight,
		MaxQueue:    maxQueue,
		RatePerSec:  rate,
		Burst:       burst,
		Reg:         reg,
		Events:      ev,
	})
	if debugAddr != "" {
		ds, err := obs.ServeDebug(debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "explinkd: debug server on http://%s/metrics\n", ds.Addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if stdio {
		// Drain rides the same signal: BeginDrain stops admitting and
		// cancels in-flight work; ServeStdio returns once stragglers finish.
		go func() {
			<-ctx.Done()
			srv.BeginDrain()
		}()
		err = srv.ServeStdio(ctx, os.Stdin, os.Stdout)
		if ctx.Err() != nil {
			err = nil // a signal-initiated drain is a clean exit
		}
	} else {
		err = serveHTTP(ctx, srv, addr, drainTimeout)
	}
	fmt.Fprintf(os.Stderr, "explinkd: placement cache: %s\n", store.Counters())
	return err
}

func serveHTTP(ctx context.Context, srv *serve.Server, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "explinkd: listening on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Drain: stop admitting, cancel in-flight work (partial results flow
	// back with Truncated reasons), then give handlers -drain-timeout to
	// write their responses before the listener is torn down.
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(sctx)
	if err := srv.Drain(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "explinkd: drain timeout; exiting with requests in flight")
	}
	if shutdownErr != nil && shutdownErr != http.ErrServerClosed && sctx.Err() == nil {
		return shutdownErr
	}
	return nil
}
