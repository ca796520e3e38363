// Package serve is the daemon layer of the repo: a long-running placement
// service (cmd/explinkd) exposing the solver, the evaluator, the cycle
// simulator and the experiment suite over HTTP/JSON and JSON-lines-over-stdio.
//
// Every request funnels into the same internal/api request structs the CLI
// tools use, runs behind one bounded admission gate, and answers hot
// placement queries from the shared core.PlacementStore (concurrent cold
// requests for the same placement are single-flighted into one solve).
// Shutdown follows the runctl taxonomy: BeginDrain stops admitting (new work
// gets 503), cancels in-flight contexts so long runs return partial results
// with their Truncated reasons, and Drain waits for the stragglers.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/obs"
	"explink/internal/runctl"
	"explink/internal/sim"
	"explink/internal/stats"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload is an
// /v1/eval traffic matrix (n=16 ⇒ 256×256 floats ≈ a few MB of JSON).
const maxBodyBytes = 32 << 20

// Config assembles a Server.
type Config struct {
	// Store is the shared placement cache; nil gets a fresh memory-only
	// store, so single-flight deduplication always works.
	Store *core.PlacementStore
	// MaxInflight bounds concurrently running requests (0 = GOMAXPROCS) and
	// MaxQueue bounds how many more may wait for a slot (0 = 64; negative =
	// no queue). Everything beyond the queue is rejected with 503.
	MaxInflight int
	MaxQueue    int
	// RatePerSec and Burst set the per-client token-bucket rate limit;
	// RatePerSec <= 0 disables it.
	RatePerSec float64
	Burst      int
	// Reg, when non-nil, receives the server's metrics (serve_* series) and
	// is scraped at GET /metrics on the server's own mux.
	Reg *obs.Registry
	// Events, when non-nil, receives server lifecycle events (server.start,
	// request.finish, server.drain) as JSON lines.
	Events *obs.EventWriter
	// Coordinator, when non-nil, mounts the sweep-fabric work endpoints
	// (POST /v1/work/lease, /v1/work/heartbeat, /v1/work/complete) backed by
	// it. See internal/fabric.
	Coordinator WorkCoordinator
}

// WorkCoordinator is the sweep-fabric surface a server can host: the
// lease/heartbeat/complete triple of internal/fabric's Coordinator. Declared
// here as an interface so the serve layer stays ignorant of fabric's
// internals (the dependency points fabric→serve at the binary level only).
type WorkCoordinator interface {
	Lease(ctx context.Context, worker string) (api.WorkLeaseResponse, error)
	Heartbeat(ctx context.Context, lease string) (api.WorkHeartbeatResponse, error)
	Complete(ctx context.Context, req api.WorkCompleteRequest) (api.WorkCompleteResponse, error)
}

// Server is the placement-as-a-service engine behind cmd/explinkd. Create
// with New, expose with Handler or ServeStdio, stop with BeginDrain + Drain.
type Server struct {
	store *core.PlacementStore
	gate  *gate
	lim   *limiter
	mux   *http.ServeMux
	met   *metrics
	ev    *obs.EventWriter

	// base is cancelled (with a cause matching runctl.ErrCancelled) by
	// BeginDrain; every admitted request's context is linked to it.
	base       context.Context
	cancelBase context.CancelCauseFunc
	wg         sync.WaitGroup
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store, _ = core.NewPlacementStore("") // "" never fails
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	base, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		store:      cfg.Store,
		gate:       newGate(cfg.MaxInflight, cfg.MaxQueue),
		lim:        newLimiter(cfg.RatePerSec, cfg.Burst),
		ev:         cfg.Events,
		base:       base,
		cancelBase: cancel,
	}
	s.met = newMetrics(cfg.Reg, s.gate)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /"+api.SchemaVersion+"/solve", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, "solve") })
	s.mux.HandleFunc("POST /"+api.SchemaVersion+"/eval", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, "eval") })
	s.mux.HandleFunc("POST /"+api.SchemaVersion+"/sim", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, "sim") })
	s.mux.HandleFunc("POST /"+api.SchemaVersion+"/exp", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, "exp") })
	s.mux.HandleFunc("POST /"+api.SchemaVersion+"/pareto", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, "pareto") })
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Coordinator != nil {
		coord := cfg.Coordinator
		// Work RPCs bypass the gate and limiter on purpose: they are cheap
		// coordinator bookkeeping, and a heartbeat queued behind heavy solve
		// admission would expire the very lease it is trying to keep alive.
		// They also stay open during drain, so workers can hand back their
		// in-flight units as cancelled completions instead of timing out.
		s.mux.HandleFunc("POST /"+api.SchemaVersion+"/work/lease", func(w http.ResponseWriter, r *http.Request) {
			s.met.request("work")
			var req api.WorkLeaseRequest
			if err := s.decodeWork(w, r, &req); err != nil {
				return
			}
			req.Normalize()
			if err := req.Validate(); err != nil {
				s.writeError(w, "work", err)
				return
			}
			resp, err := coord.Lease(r.Context(), req.Worker)
			s.writeWork(w, resp, err)
		})
		s.mux.HandleFunc("POST /"+api.SchemaVersion+"/work/heartbeat", func(w http.ResponseWriter, r *http.Request) {
			s.met.request("work")
			var req api.WorkHeartbeatRequest
			if err := s.decodeWork(w, r, &req); err != nil {
				return
			}
			if err := req.Validate(); err != nil {
				s.writeError(w, "work", err)
				return
			}
			resp, err := coord.Heartbeat(r.Context(), req.Lease)
			s.writeWork(w, resp, err)
		})
		s.mux.HandleFunc("POST /"+api.SchemaVersion+"/work/complete", func(w http.ResponseWriter, r *http.Request) {
			s.met.request("work")
			var req api.WorkCompleteRequest
			if err := s.decodeWork(w, r, &req); err != nil {
				return
			}
			resp, err := coord.Complete(r.Context(), req)
			s.writeWork(w, resp, err)
		})
	}
	if cfg.Reg != nil {
		reg := cfg.Reg
		s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
	}
	return s
}

// Handler returns the HTTP face of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the shared placement store (its counters prove single-flight
// behaviour: two concurrent cold requests for one placement ⇒ Solves == 1).
func (s *Server) Store() *core.PlacementStore { return s.store }

// BeginDrain starts shutdown: the gate stops admitting (new requests get
// 503 "draining") and every in-flight request context is cancelled with a
// cause matching runctl.ErrCancelled, so long solves and sweeps return
// partial results carrying their Truncated reasons. Idempotent.
func (s *Server) BeginDrain() {
	s.gate.beginDrain()
	s.cancelBase(fmt.Errorf("serve: draining: %w", runctl.ErrCancelled))
	s.ev.Emit("server.drain", map[string]any{"inflight": s.gate.inflight(), "queued": s.gate.queued()})
}

// Drain blocks until every admitted request has finished, or ctx expires
// (returning an error matching runctl.ErrCancelled).
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return runctl.Cancelled(ctx)
	}
}

// handle is the one HTTP entry path: rate limit, admission gate, drain-aware
// context, dispatch by op, metrics and events on the way out.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, op string) {
	s.met.request(op)
	if !s.lim.allow(clientKey(r)) {
		s.reject(w, op, ErrRateLimited)
		return
	}
	release, err := s.gate.acquire(r.Context())
	if err != nil {
		s.reject(w, op, err)
		return
	}
	s.wg.Add(1)
	ctx, cancel := context.WithCancelCause(r.Context())
	stop := context.AfterFunc(s.base, func() { cancel(context.Cause(s.base)) })
	start := time.Now()
	defer func() {
		stop()
		cancel(nil)
		release()
		s.met.observe(op, time.Since(start))
		s.ev.Emit("request.finish", map[string]any{"op": op, "seconds": time.Since(start).Seconds()})
		s.wg.Done()
	}()

	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	switch op {
	case "solve":
		s.handleSolve(ctx, w, r)
	case "eval":
		s.handleEval(ctx, w, r)
	case "sim":
		s.handleSim(ctx, w, r)
	case "exp":
		s.handleExp(ctx, w, r)
	case "pareto":
		s.handlePareto(ctx, w, r)
	}
}

func (s *Server) handlePareto(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req api.ParetoRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, "pareto", err)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.writeError(w, "pareto", err)
		return
	}
	f, err := req.Solve(ctx, s.store)
	if err != nil {
		s.writeError(w, "pareto", err)
		return
	}
	// Encode (not the sanitizer): these bytes must equal `explink -pareto -json`.
	s.writeEncoded(w, "pareto", api.NewParetoResponse(f).Encode)
}

func (s *Server) handleSolve(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req api.SolveRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, "solve", err)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.writeError(w, "solve", err)
		return
	}
	best, all, err := req.Solve(ctx, s.store)
	if err != nil {
		s.writeError(w, "solve", err)
		return
	}
	// Encode (not the sanitizer): these bytes must equal `explink -json`.
	s.writeEncoded(w, "solve", api.NewSolveResponse(best, all).Encode)
}

func (s *Server) handleEval(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req api.EvalRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, "eval", err)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.writeError(w, "eval", err)
		return
	}
	resp, err := req.Eval()
	if err != nil {
		s.writeError(w, "eval", err)
		return
	}
	s.writeEncoded(w, "eval", resp.Encode)
}

func (s *Server) handleSim(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req api.SimRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, "sim", err)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.writeError(w, "sim", err)
		return
	}
	resp, err := s.runSim(ctx, &req)
	if err != nil {
		// A run that got cut short (drain, deadline, deadlock) still carries
		// its partial measurements; report them with the classified error
		// embedded instead of discarding data behind a bare status code.
		if !resp.Partial() {
			s.writeError(w, "sim", err)
			return
		}
		resp.Error = api.ErrorBodyOf(err)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// runSim executes a (normalized, validated) SimRequest: one operating point,
// a replica group, or a saturation sweep. Shared by HTTP and stdio.
func (s *Server) runSim(ctx context.Context, req *api.SimRequest) (api.SimResponse, error) {
	var resp api.SimResponse
	cfg, err := req.Config(ctx, s.store)
	if err != nil {
		return resp, err
	}
	switch {
	case req.Saturate:
		opts := sim.DefaultSaturationOpts()
		if req.Replicas > 1 {
			opts.Replicas = req.Replicas
		}
		sr, err := sim.FindSaturation(ctx, cfg, opts)
		if len(sr.Points) > 0 || err == nil {
			resp.Sweep = &sr
		}
		return resp, err
	case req.Replicas > 1:
		b, err := sim.NewBatch(cfg, sim.ReplicaSeeds(cfg.Seed, req.Replicas))
		if err != nil {
			return resp, err
		}
		results, _, err := b.Run(ctx, 0)
		if len(results) > 0 {
			agg := sim.AggregateReplicas(results)
			resp.Replicas, resp.Aggregate = results, &agg
		}
		return resp, err
	default:
		sm, err := sim.New(cfg)
		if err != nil {
			return resp, err
		}
		res, err := sm.Run(ctx)
		resp.Result = &res
		return resp, err
	}
}

func (s *Server) handleExp(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req api.ExpRequest
	if err := decodeBody(r.Body, &req); err != nil {
		s.writeError(w, "exp", err)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.writeError(w, "exp", err)
		return
	}
	sel, err := api.SelectExperiments(req.Experiments)
	if err != nil {
		s.writeError(w, "exp", err)
		return
	}
	// From here the response is a chunked JSON-lines stream: progress events
	// as the suite runs, then one terminal suite.result line with every
	// report. The status is already committed, so a drain mid-suite shows up
	// as cancelled outcomes inside the terminal line, not as an HTTP error.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	ev := obs.NewEventWriter(flushWriter{w})
	res := s.runExp(ctx, sel, &req, ev)
	raw, _, err := stats.MarshalSanitized(res)
	if err != nil {
		ev.Emit("suite.result", map[string]any{"error": err.Error()})
		return
	}
	ev.Emit("suite.result", map[string]any{"failed": res.Failed, "result": json.RawMessage(raw)})
}

// runExp executes a (normalized, validated) ExpRequest over the selected
// experiments, streaming progress to ev. Shared by HTTP and stdio.
func (s *Server) runExp(ctx context.Context, sel []exp.Experiment, req *api.ExpRequest, ev *obs.EventWriter) api.ExpResult {
	opts := exp.DefaultOptions()
	opts.Quick = req.Quick
	opts.Seed = req.Seed
	opts.Replicas = req.Replicas
	opts.Store = s.store
	return api.ExpResultOf(exp.RunAll(ctx, sel, opts, req.Parallel, ev))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.gate.draining() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"schema":   api.SchemaVersion,
		"inflight": s.gate.inflight(),
		"queued":   s.gate.queued(),
		"cache":    s.store.Counters(),
	})
}

// reject writes an admission failure (draining/overloaded/rate-limited or a
// client disconnect while queued) and counts it.
func (s *Server) reject(w http.ResponseWriter, op string, err error) {
	s.met.reject(reasonOf(err))
	s.writeError(w, op, err)
}

// writeError maps err onto its HTTP status (serve admission sentinels first,
// then the runctl taxonomy via api.HTTPStatus) and writes the standard error
// body {"error":{"kind":...,"message":...}}.
func (s *Server) writeError(w http.ResponseWriter, op string, err error) {
	s.met.failure(op)
	status, kind := statusOf(err)
	body := map[string]any{"error": &api.ErrorBody{Kind: kind, Message: err.Error()}}
	s.writeJSON(w, status, body)
}

// writeEncoded answers 200 with the bytes encode produces. Encoding goes to
// a buffer first, so a response that cannot be encoded becomes an error body
// instead of a 200 with nothing (or half a document) behind it.
func (s *Server) writeEncoded(w http.ResponseWriter, op string, encode func(io.Writer) error) {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		s.writeError(w, op, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes()) // a failed write means the client is gone: no one is left to tell
}

// writeJSON writes v as indented JSON through the stats sanitizer, so a
// non-finite float anywhere in a response degrades to null (with the paths
// reported in an X-Explink-Sanitized header) instead of failing the request.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, notes, err := stats.MarshalIndentSanitized(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":{"kind":"internal","message":%q}}`, err.Error()), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if len(notes) > 0 {
		w.Header().Set("X-Explink-Sanitized", strings.Join(notes, "; "))
	}
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}

// decodeWork reads a bounded work-RPC body, answering the config error
// itself; the caller just returns on non-nil.
func (s *Server) decodeWork(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := decodeBody(r.Body, v); err != nil {
		s.writeError(w, "work", err)
		return err
	}
	return nil
}

// writeWork answers one work RPC: coordinator errors follow the standard
// error surface, successes encode with json.Marshal (not the sanitizer — a
// completion echoes no floats that could be non-finite, and lease responses
// must round-trip the unit exactly).
func (s *Server) writeWork(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		s.writeError(w, "work", err)
		return
	}
	buf, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, "work", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

// statusOf resolves the HTTP status and wire kind of err: the serve-level
// admission sentinels map to 503/503/429, everything else follows the runctl
// taxonomy (api.HTTPStatus).
func statusOf(err error) (int, string) {
	switch reasonOf(err) {
	case "draining":
		return http.StatusServiceUnavailable, "draining"
	case "overloaded":
		return http.StatusServiceUnavailable, "overloaded"
	case "rate-limited":
		return http.StatusTooManyRequests, "rate-limited"
	}
	return api.HTTPStatus(err), api.Kind(err)
}

// reasonOf names the admission sentinel behind err, or "" for ordinary
// errors. errors.Is is deliberate: gate errors may arrive wrapped.
func reasonOf(err error) string {
	switch {
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrRateLimited):
		return "rate-limited"
	}
	return ""
}

// decodeBody parses a JSON request body strictly (unknown fields are config
// errors — they are almost always typos in a versioned schema).
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v: %w", err, runctl.ErrConfig)
	}
	return nil
}

// clientKey identifies a client for rate limiting: the X-Explink-Client
// header when present (clients sharing a NAT can self-identify), else the
// remote IP.
func clientKey(r *http.Request) string {
	if v := r.Header.Get("X-Explink-Client"); v != "" {
		return v
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// flushWriter flushes after every write so JSON-lines progress events cross
// the wire as they happen instead of sitting in the response buffer.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}
