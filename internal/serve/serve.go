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
	"explink/internal/obs"
	"explink/internal/runctl"
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
	for _, op := range api.Ops {
		s.mux.HandleFunc("POST /"+api.SchemaVersion+"/"+op.Name, func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, op) })
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if c := cfg.Coordinator; c != nil {
		// Work RPCs bypass the gate and limiter on purpose: they are cheap
		// coordinator bookkeeping, and a heartbeat queued behind heavy solve
		// admission would expire the very lease it is trying to keep alive.
		// They also stay open during drain, so workers can hand back their
		// in-flight units as cancelled completions instead of timing out.
		s.mux.HandleFunc("POST /"+api.SchemaVersion+"/work/lease", workRPC(s, func(ctx context.Context, r *api.WorkLeaseRequest) (api.WorkLeaseResponse, error) {
			r.Normalize()
			return c.Lease(ctx, r.Worker)
		}))
		s.mux.HandleFunc("POST /"+api.SchemaVersion+"/work/heartbeat", workRPC(s, func(ctx context.Context, r *api.WorkHeartbeatRequest) (api.WorkHeartbeatResponse, error) {
			return c.Heartbeat(ctx, r.Lease)
		}))
		s.mux.HandleFunc("POST /"+api.SchemaVersion+"/work/complete", workRPC(s, func(ctx context.Context, r *api.WorkCompleteRequest) (api.WorkCompleteResponse, error) {
			return c.Complete(ctx, *r)
		}))
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
// perfbench reads the counters through it; the daemon itself does not.
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

// dispatch is the one admission path both transports share: the per-client
// rate limit (skipped when client is ""), the gate, the drain WaitGroup, a
// context cancelled by the caller's or by BeginDrain, wall-time metrics
// under label and, when events are configured, a request.finish event.
// reply receives the rejection or op's answer exactly once, while the
// request still holds its slot.
func (s *Server) dispatch(ctx context.Context, label, client string, op api.Op, body io.Reader, env api.Env, reply func(api.Reply, error)) {
	s.met.request(label)
	err := ErrRateLimited
	var release func()
	if client == "" || s.lim.allow(client) {
		release, err = s.gate.acquire(ctx)
	}
	if err != nil {
		_, kind := statusOf(err) // a client gone while queued is "cancelled"
		s.met.reject(kind)
		s.met.failure(label)
		reply(api.Reply{}, err)
		return
	}
	s.wg.Add(1)
	ctx, cancel := context.WithCancelCause(ctx)
	stop := context.AfterFunc(s.base, func() { cancel(context.Cause(s.base)) })
	start := time.Now()
	defer func() {
		stop()
		cancel(nil)
		release()
		s.met.observe(label, time.Since(start))
		if s.ev != nil {
			s.ev.Emit("request.finish", map[string]any{"op": op.Name, "seconds": time.Since(start).Seconds()})
		}
		s.wg.Done()
	}()
	rep, err := op.Run(ctx, env, body)
	if err != nil {
		s.met.failure(label)
	}
	reply(rep, err)
}

// handle serves one op over HTTP. A streaming op (exp) sends its progress
// as JSON lines once it has validated; its status is then committed, so its
// outcome travels inside the stream rather than through writeReply. The
// progress hook and the client key are built only for requests that use
// them.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, op api.Op) {
	env := api.Env{Store: s.store}
	var sp *streamProgress
	if op.Streams {
		sp = &streamProgress{w: w}
		env.Progress = sp.start
	}
	var client string
	if s.lim.enabled() {
		client = clientKey(r)
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.dispatch(r.Context(), op.Name, client, op, body, env, func(rep api.Reply, err error) {
		if sp == nil || !sp.started {
			writeReply(w, rep, err)
		}
	})
}

// streamProgress is a streaming op's progress hook over one HTTP response.
type streamProgress struct {
	w       http.ResponseWriter
	started bool
}

// start commits the response as a 200 JSON-lines stream and returns its
// event sink.
func (p *streamProgress) start() *obs.EventWriter {
	p.started = true
	p.w.Header().Set("Content-Type", "application/x-ndjson")
	p.w.WriteHeader(http.StatusOK)
	return obs.NewEventWriter(flushWriter{p.w})
}

// writeReply answers 200 with the reply body (a partial sim result
// included, its error embedded), or the mapped error when there is no body.
// The sanitizer's notes go out in an X-Explink-Sanitized header. Write does
// not retain the body, so it is released for reuse once written.
func writeReply(w http.ResponseWriter, rep api.Reply, err error) {
	if rep.Body == nil {
		writeError(w, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	if len(rep.Notes) > 0 {
		w.Header().Set("X-Explink-Sanitized", strings.Join(rep.Notes, "; "))
	}
	w.Write(rep.Body) // a failed write means the client is gone: no one is left to tell
	rep.Release()
}

// jsonContentType is the Content-Type of every JSON reply, shared so that
// setting it allocates nothing; net/http only reads header values.
var jsonContentType = []string{"application/json"}

// status is the liveness word healthz and the stdio ping report.
func (s *Server) status() string {
	if s.gate.draining() {
		return "draining"
	}
	return "ok"
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   s.status(),
		"schema":   api.SchemaVersion,
		"inflight": s.gate.inflight(),
		"queued":   s.gate.queued(),
		"cache":    s.store.Counters(),
	})
}

// writeError maps err onto its HTTP status (serve admission sentinels first,
// then the runctl taxonomy via api.HTTPStatus) and writes the standard error
// body {"error":{"kind":...,"message":...}}.
func writeError(w http.ResponseWriter, err error) {
	status, _ := statusOf(err)
	writeJSON(w, status, map[string]any{"error": errorBody(err)})
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":{"kind":"internal","message":%q}}`, err.Error()), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}

// workRPC builds the handler of one work RPC: strict decode, Validate, call
// the coordinator, answer with json.Marshal (not the sanitizer — a
// completion echoes no floats that could be non-finite, and lease responses
// must round-trip the unit exactly). Errors follow the standard error body.
func workRPC[R any, P interface {
	*R
	Validate() error
}, Resp any](s *Server, call func(context.Context, P) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.request("work")
		req := P(new(R))
		err := api.Decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), req)
		if err == nil {
			err = req.Validate()
		}
		var buf []byte
		if err == nil {
			var resp Resp
			if resp, err = call(r.Context(), req); err == nil {
				buf, err = json.Marshal(resp)
			}
		}
		if err != nil {
			s.met.failure("work")
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(buf, '\n'))
	}
}

// errorBody is the wire form of err, with the admission sentinels' kinds;
// nil in, nil out.
func errorBody(err error) *api.ErrorBody {
	if err == nil {
		return nil
	}
	_, kind := statusOf(err)
	return &api.ErrorBody{Kind: kind, Message: err.Error()}
}

// admissionErrors are the serve-level rejections with their wire kinds
// (also their serve_rejected_total reasons) and HTTP statuses.
var admissionErrors = []struct {
	err    error
	kind   string
	status int
}{
	{ErrDraining, "draining", http.StatusServiceUnavailable},
	{ErrOverloaded, "overloaded", http.StatusServiceUnavailable},
	{ErrRateLimited, "rate-limited", http.StatusTooManyRequests},
}

// statusOf resolves the HTTP status and wire kind of err: the admission
// sentinels first (errors.Is is deliberate: gate errors may arrive
// wrapped), then the runctl taxonomy.
func statusOf(err error) (int, string) {
	for _, a := range admissionErrors {
		if errors.Is(err, a.err) {
			return a.status, a.kind
		}
	}
	return api.HTTPStatus(err), api.Kind(err)
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
