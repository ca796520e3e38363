package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"explink/internal/core"
	"explink/internal/obs"
	"explink/internal/serve"
)

// recorder is a reusable http.ResponseWriter: one per op slot, reset before
// each request, so the client side allocates nothing per op beyond the
// request itself.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.buf.Reset()
}

// client is the benchmark's single closed-loop client: it sends the next
// request only after the previous response is complete, as the daemon's real
// callers (explink -json, expbench and expsweep workers) do.
type client struct {
	ops  []op
	recs []recorder
	ver  *verifier
	tl   *tally
}

func newClient(ops []op, fixture []string, tl *tally) *client {
	c := &client{ops: ops, recs: make([]recorder, len(ops)), ver: newVerifier(ops, fixture), tl: tl}
	for i := range c.recs {
		c.recs[i].hdr = make(http.Header)
	}
	return c
}

// do sends op i to h in-process and returns the time ServeHTTP took.
func (c *client) do(h http.Handler, i int) time.Duration {
	o := &c.ops[i]
	rec := &c.recs[i]
	rec.reset()
	req, err := http.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	if err != nil {
		panic(err) // the paths are constant and valid
	}
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start)
}

// pass sends every op once, in order, writing per-op latencies into lat
// (which may be nil), and returns the pass's wall time. The responses are
// checked afterwards, outside the timed interval.
func (c *client) pass(h http.Handler, lat []time.Duration) time.Duration {
	wall := c.send(h, 0, len(c.ops), lat)
	c.verify()
	return wall
}

// send sends ops lo..hi-1 once, in order, writing op i's latency into lat[i]
// (lat may be nil), and returns their wall time.
func (c *client) send(h http.Handler, lo, hi int, lat []time.Duration) time.Duration {
	start := time.Now()
	for i := lo; i < hi; i++ {
		d := c.do(h, i)
		if lat != nil {
			lat[i] = d
		}
	}
	return time.Since(start)
}

// verify checks the responses of the pass just sent.
func (c *client) verify() {
	for i := range c.ops {
		c.tl.record(c.ver.check(i, &c.recs[i]))
	}
}

// tally counts checked ops and failures; an op whose check fails counts as
// failed.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
	fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
}

// newServer builds the daemon engine under test over st (a fresh
// memory-only store when nil).
func newServer(st *core.PlacementStore, reg *obs.Registry) *serve.Server {
	if st == nil {
		st, _ = core.NewPlacementStore("") // "" never fails
	}
	return serve.New(serve.Config{Store: st, Reg: reg})
}

// serverHeap returns the live heap with srv reachable and, as the baseline,
// the live heap once srv (its store included) is dropped. Both readings are
// taken back to back at the end of the run: a baseline read before the
// server was built would also count every thread and goroutine descriptor
// the runtime allocated during the run, a few kilobytes that come and go
// from run to run.
func serverHeap(srv *serve.Server) (with, without uint64) {
	with = liveHeap()
	runtime.KeepAlive(srv)
	return with, liveHeap()
}

// liveHeap returns the live heap after forced collections: two, so objects
// parked in sync.Pool victim caches are gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
