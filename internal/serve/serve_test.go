package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/obs"
	"explink/internal/runctl"
	"explink/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf
}

// TestConcurrentColdSolveSingleFlight is the PR's acceptance e2e: two clients
// request the same cold placement concurrently; the store counters prove
// exactly one solve ran, and both responses are byte-identical to the
// equivalent `explink -json` output.
func TestConcurrentColdSolveSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const body = `{"n":6,"c":3}`

	var (
		wg    sync.WaitGroup
		codes [2]int
		resps [2][]byte
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i] = post(t, ts.URL+"/v1/solve", body)
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, code, resps[i])
		}
	}
	if !bytes.Equal(resps[0], resps[1]) {
		t.Fatalf("concurrent responses differ:\n%s\nvs\n%s", resps[0], resps[1])
	}
	c := srv.Store().Counters()
	if c.Solves != 1 {
		t.Fatalf("store counters %s: want exactly one solve for two concurrent cold requests", c)
	}
	if c.Hits != 1 {
		t.Fatalf("store counters %s: want the second request answered as a hit", c)
	}

	// Byte-identity against the CLI path: the same request through the same
	// shared encoder is exactly what `explink -n 6 -c 3 -json` prints.
	req := api.SolveRequest{N: 6, C: 3}
	req.Normalize()
	best, all, err := req.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := api.NewSolveResponse(best, all).Encode(&cli); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resps[0], cli.Bytes()) {
		t.Fatalf("daemon response != CLI bytes:\n%s\nvs\n%s", resps[0], cli.String())
	}

	// A warm re-query answers from cache: same bytes, no new solve.
	code, warm := post(t, ts.URL+"/v1/solve", body)
	if code != http.StatusOK || !bytes.Equal(warm, resps[0]) {
		t.Fatalf("warm re-query diverged (status %d)", code)
	}
	if c := srv.Store().Counters(); c.Solves != 1 {
		t.Fatalf("warm re-query re-solved: %s", c)
	}
}

func TestEvalEndpointMatchesAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, buf := post(t, ts.URL+"/v1/eval", `{"n":8,"c":2,"express":[{"From":0,"To":7}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}
	var got api.EvalResponse
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf)
	}
	if got.C != 2 || got.Total <= 0 {
		t.Fatalf("eval response degenerate: %+v", got)
	}
}

func TestValidationAndErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		path, body string
		status     int
		kind       string
	}{
		{"/v1/solve", `{"n":1}`, http.StatusBadRequest, "config"},
		{"/v1/solve", `{"n":8,"algo":"magic"}`, http.StatusBadRequest, "config"},
		{"/v1/solve", `{"n":8,"typo":true}`, http.StatusBadRequest, "config"}, // unknown field
		{"/v1/solve", `not json`, http.StatusBadRequest, "config"},
		{"/v1/sim", `{"n":8,"measure":-1}`, http.StatusBadRequest, "config"},
		{"/v1/sim", `{"n":8,"rate":2}`, http.StatusBadRequest, "config"},
		{"/v1/sim", `{"n":8,"replicas":-1}`, http.StatusBadRequest, "config"},
		{"/v1/sim", `{"n":8,"topo":"ring"}`, http.StatusBadRequest, "config"},
		{"/v1/exp", `{"experiments":["nope"]}`, http.StatusBadRequest, "config"},
	}
	for _, c := range cases {
		code, buf := post(t, ts.URL+c.path, c.body)
		if code != c.status {
			t.Fatalf("%s %s: status %d, want %d: %s", c.path, c.body, code, c.status, buf)
		}
		var body struct {
			Error api.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(buf, &body); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", c.path, err, buf)
		}
		if body.Error.Kind != c.kind {
			t.Fatalf("%s: kind %q, want %q (%s)", c.path, body.Error.Kind, c.kind, buf)
		}
	}
}

func TestSimEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, buf := post(t, ts.URL+"/v1/sim",
		`{"n":4,"warmup":200,"measure":1000,"drain":5000}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}
	var resp api.SimResponse
	if err := json.Unmarshal(buf, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.Result == nil || !resp.Result.Drained || resp.Result.MeasuredPackets == 0 {
		t.Fatalf("sim result degenerate: %+v", resp.Result)
	}
	if resp.Error != nil {
		t.Fatalf("unexpected error: %+v", resp.Error)
	}

	// Replica group: per-replica results plus the aggregate.
	code, buf = post(t, ts.URL+"/v1/sim",
		`{"n":4,"warmup":200,"measure":1000,"drain":5000,"replicas":3}`)
	if code != http.StatusOK {
		t.Fatalf("replicas status %d: %s", code, buf)
	}
	resp = api.SimResponse{}
	if err := json.Unmarshal(buf, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Replicas) != 3 || resp.Aggregate == nil {
		t.Fatalf("replica response shape wrong: %d replicas, aggregate %v",
			len(resp.Replicas), resp.Aggregate)
	}
}

// TestDrainDuringInflight pins the drain contract end to end: a long sim run
// admitted before BeginDrain returns 200 with a partial result carrying
// Truncated="cancelled", new admissions get 503 "draining", and Drain
// returns once the straggler is gone.
func TestDrainDuringInflight(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	type outcome struct {
		code int
		buf  []byte
	}
	done := make(chan outcome, 1)
	go func() {
		// Big enough to run for many seconds if never cancelled.
		code, buf := post(t, ts.URL+"/v1/sim",
			`{"n":8,"rate":0.05,"warmup":1000,"measure":100000000}`)
		done <- outcome{code, buf}
	}()

	// Wait for the request to actually hold a gate slot before draining.
	deadline := time.Now().Add(5 * time.Second)
	for srv.gate.inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let it simulate a few thousand cycles
	srv.BeginDrain()

	oc := <-done
	if oc.code != http.StatusOK {
		t.Fatalf("drained request: status %d: %s", oc.code, oc.buf)
	}
	var resp api.SimResponse
	if err := json.Unmarshal(oc.buf, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, oc.buf)
	}
	if resp.Result == nil || resp.Result.Truncated != sim.TruncatedCancelled {
		t.Fatalf("partial result missing its truncation reason: %+v", resp.Result)
	}
	if resp.Error == nil || resp.Error.Kind != "cancelled" {
		t.Fatalf("embedded error wrong: %+v", resp.Error)
	}

	// New work is refused while draining.
	code, buf := post(t, ts.URL+"/v1/solve", `{"n":6,"c":3}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain admission: status %d: %s", code, buf)
	}
	var body struct {
		Error api.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(buf, &body); err != nil || body.Error.Kind != "draining" {
		t.Fatalf("post-drain error body: %v %s", err, buf)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Health reports the drained state.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !bytes.Contains(hb, []byte(`"status": "draining"`)) {
		t.Fatalf("healthz after drain: %s", hb)
	}
}

func TestRateLimiting(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 2})
	var saw429 bool
	for i := 0; i < 4; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/eval",
			strings.NewReader(`{"n":4,"c":1}`))
		req.Header.Set("X-Explink-Client", "hammer")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
		}
	}
	if !saw429 {
		t.Fatal("burst of 4 with burst=2 never rate limited")
	}
}

func TestGate(t *testing.T) {
	g := newGate(1, 1)
	rel1, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.inflight() != 1 {
		t.Fatalf("inflight %d", g.inflight())
	}

	// Second acquirer queues; third overflows the queue.
	got2 := make(chan error, 1)
	go func() {
		rel2, err := g.acquire(context.Background())
		if err == nil {
			defer rel2()
		}
		got2 <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for g.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := g.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue overflow: %v", err)
	}

	// A queued waiter whose context dies reports cancellation.
	rel1()
	if err := <-got2; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}

	relHold, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := g.acquire(ctx)
		waitErr <- err
	}()
	for g.queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waitErr; !errors.Is(err, runctl.ErrCancelled) {
		t.Fatalf("cancelled waiter: %v", err)
	}

	// Drain fails waiters and future acquirers.
	drainErr := make(chan error, 1)
	go func() {
		_, err := g.acquire(context.Background())
		drainErr <- err
	}()
	for g.queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	g.beginDrain()
	g.beginDrain() // idempotent
	if err := <-drainErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("drained waiter: %v", err)
	}
	if _, err := g.acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain acquire: %v", err)
	}
	relHold()
	if !g.draining() {
		t.Fatal("draining() false after beginDrain")
	}
}

func TestLimiter(t *testing.T) {
	l := newLimiter(1, 2)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	if !l.allow("a") || !l.allow("a") {
		t.Fatal("burst of 2 rejected")
	}
	if l.allow("a") {
		t.Fatal("third immediate request allowed")
	}
	if !l.allow("b") {
		t.Fatal("independent client throttled")
	}
	now = now.Add(1500 * time.Millisecond)
	if !l.allow("a") {
		t.Fatal("refilled token rejected")
	}
	if (*limiter)(nil).allow("x") != true {
		t.Fatal("nil limiter must allow")
	}
	if !newLimiter(0, 1).allow("x") {
		t.Fatal("disabled limiter must allow")
	}
}

func TestLimiterEviction(t *testing.T) {
	l := newLimiter(100, 1)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < limiterMaxClients; i++ {
		l.allow(fmt.Sprintf("client-%d", i))
	}
	if len(l.buckets) != limiterMaxClients {
		t.Fatalf("bucket count %d", len(l.buckets))
	}
	// Everything is stale after a long idle gap; the next new client
	// triggers eviction instead of unbounded growth.
	now = now.Add(time.Hour)
	l.allow("fresh")
	if len(l.buckets) >= limiterMaxClients {
		t.Fatalf("stale buckets not evicted: %d", len(l.buckets))
	}
}

// safeBuffer lets the race detector watch the event stream.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestConcurrentMetricsAndRequests is the satellite-4 race test: hammer
// /metrics (server mux and DebugServer) while requests run, close the
// DebugServer with a scrape in flight, and verify the event stream stayed
// line-atomic. Run with -race.
func TestConcurrentMetricsAndRequests(t *testing.T) {
	reg := obs.NewRegistry()
	events := &safeBuffer{}
	srv, ts := newTestServer(t, Config{Reg: reg, Events: obs.NewEventWriter(events)})

	ds, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				code, buf := post(t, ts.URL+"/v1/eval", `{"n":6,"c":2,"express":[{"From":0,"To":3}]}`)
				if code != http.StatusOK {
					t.Errorf("eval: status %d: %s", code, buf)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Errorf("metrics scrape: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !bytes.Contains(body, []byte("serve_requests_total")) {
					t.Errorf("scrape missing serve series:\n%.200s", body)
					return
				}
			}
		}()
	}
	// DebugServer.Close racing an in-flight scrape must not panic or hang;
	// errors after Close are expected and ignored.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			resp, err := http.Get("http://" + ds.Addr + "/metrics")
			if err != nil {
				return // server closed under us — the point of the test
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		ds.Close()
	}()
	wg.Wait()

	if t.Failed() {
		return
	}
	// Every emitted event line must parse alone: concurrent requests writing
	// through one EventWriter may interleave lines, never bytes.
	for _, line := range events.Lines() {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("event line not atomic: %v\n%q", err, line)
		}
	}
	_ = srv
}

func TestStoreCounterSingleFlightUnderHammer(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 8, MaxQueue: 32})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, buf := post(t, ts.URL+"/v1/solve", `{"n":6,"c":2}`)
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, buf)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c := srv.Store().Counters()
	if c.Solves != 1 || c.Hits != 7 {
		t.Fatalf("eight concurrent identical solves: %s, want solves=1 hits=7", c)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status string             `json:"status"`
		Schema string             `json:"schema"`
		Cache  core.StoreCounters `json:"cache"`
	}
	if err := json.Unmarshal(buf, &h); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf)
	}
	if h.Status != "ok" || h.Schema != api.SchemaVersion {
		t.Fatalf("health %+v", h)
	}
}

// TestEvalOverflowingWeightsIsConfigError: traffic weights whose total (or
// whose latency-weighted sum) overflows used to answer HTTP 200 with an
// empty body, and "ok":true with a null latency over stdio. Both transports
// must now reject them as config errors.
func TestEvalOverflowingWeightsIsConfigError(t *testing.T) {
	bodies := []string{
		// 16 entries of 1e308: the total is +Inf.
		`{"n":2,"c":1,"weights":[[1e308,1e308,1e308,1e308],[1e308,1e308,1e308,1e308],[1e308,1e308,1e308,1e308],[1e308,1e308,1e308,1e308]]}`,
		// One finite entry whose product with a pair latency overflows.
		`{"n":2,"c":1,"weights":[[0,0,0,1.7e308],[0,0,0,0],[0,0,0,0],[0,0,0,0]]}`,
	}
	srv := New(Config{})
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body)))
		var resp struct {
			Error api.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusBadRequest || resp.Error.Kind != "config" {
			t.Fatalf("HTTP %s: status %d: %q (%v)", body, rec.Code, rec.Body.Bytes(), err)
		}

		var out bytes.Buffer
		err := srv.ServeStdio(context.Background(), strings.NewReader(`{"id":1,"op":"eval","req":`+body+"}\n"), &syncWriter{w: &out})
		var line stdioResponse
		if err != nil || json.Unmarshal(out.Bytes(), &line) != nil || line.OK || line.Error == nil || line.Error.Kind != "config" {
			t.Fatalf("stdio %s: %v: %s", body, err, out.Bytes())
		}
	}
}

// TestWriteEncodedFailureAnswersError: a reply whose encoder failed carries
// no body (api's encoders buffer, see TestEncodedFailureReturnsNoBody), and
// the HTTP writer must answer it with an error, never a 200.
func TestWriteEncodedFailureAnswersError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeReply(rec, api.Reply{}, errors.New("cannot encode"))
	var resp struct {
		Error api.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code == http.StatusOK || resp.Error.Message != "cannot encode" {
		t.Fatalf("status %d: %q (%v)", rec.Code, rec.Body.Bytes(), err)
	}
}

// TestSimHugeNetworkRejected: a sim past api.MaxSimN must be a config error
// on both transports. Unchecked, n=128 exhausts memory building the route
// tables, a fatal error that kills the daemon with every request in flight;
// n=65 with 1-cycle phases used to answer ok.
func TestSimHugeNetworkRejected(t *testing.T) {
	const body = `{"n":65,"warmup":1,"measure":1,"drain":1}`
	srv := New(Config{})
	code, buf := httpCall(srv, "sim", body)
	if code != http.StatusBadRequest || errorKind(buf) != "config" {
		t.Fatalf("HTTP: status %d: %s", code, buf)
	}
	if resp := stdioCall(t, srv, "sim", body); resp.OK || resp.Error == nil || resp.Error.Kind != "config" {
		t.Fatalf("stdio: %+v", resp)
	}
}

// TestSimReplicaCapRejected: a sim past api.MaxReplicas must be a config
// error on both transports. Unchecked, a batch builds every replica before
// stepping, so {"n":64,"replicas":400} exhausted memory and killed the
// daemon; this small network used to answer ok.
func TestSimReplicaCapRejected(t *testing.T) {
	body := fmt.Sprintf(`{"n":2,"warmup":1,"measure":1,"drain":1,"replicas":%d}`, api.MaxReplicas+1)
	srv := New(Config{})
	code, buf := httpCall(srv, "sim", body)
	if code != http.StatusBadRequest || errorKind(buf) != "config" {
		t.Fatalf("HTTP: status %d: %s", code, buf)
	}
	if resp := stdioCall(t, srv, "sim", body); resp.OK || resp.Error == nil || resp.Error.Kind != "config" {
		t.Fatalf("stdio: %+v", resp)
	}
}

// TestSimPhaseOverflowRejected: phase lengths whose sum wraps the cycle
// counter used to answer 200 with a fabricated zero-cycle "drained" run.
// Both transports must reject them as config errors.
func TestSimPhaseOverflowRejected(t *testing.T) {
	srv := New(Config{})
	for _, body := range []string{
		`{"n":4,"warmup":1,"measure":9223372036854775807}`,
		`{"n":4,"warmup":9223372036854775807}`,
		`{"n":4,"warmup":4611686018427387904,"measure":4611686018427387904,"drain":4611686018427387904}`,
	} {
		code, buf := httpCall(srv, "sim", body)
		if code != http.StatusBadRequest || errorKind(buf) != "config" {
			t.Fatalf("HTTP %s: status %d: %s", body, code, buf)
		}
		if resp := stdioCall(t, srv, "sim", body); resp.OK || resp.Error == nil || resp.Error.Kind != "config" {
			t.Fatalf("stdio %s: %+v", body, resp)
		}
	}
}

// TestTrailingBodyDataRejected: a body with anything after its JSON value
// is a config error, not a request that runs on its first value.
func TestTrailingBodyDataRejected(t *testing.T) {
	srv := New(Config{})
	for _, body := range []string{`{"n":4,"c":2} trailing-garbage`, `{"n":4,"c":2}{"n":5}`} {
		code, buf := httpCall(srv, "solve", body)
		if code != http.StatusBadRequest || errorKind(buf) != "config" {
			t.Fatalf("%s: status %d: %s", body, code, buf)
		}
	}
	if c := srv.Store().Counters(); c.Solves != 0 {
		t.Fatalf("rejected bodies solved: %s", c)
	}
}
