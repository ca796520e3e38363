package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"explink/internal/api"
)

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// reuseRecorder is an http.ResponseWriter reset between requests, so an
// allocation count covers the handler and not the harness.
type reuseRecorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *reuseRecorder) Header() http.Header         { return r.hdr }
func (r *reuseRecorder) WriteHeader(code int)        { r.code = code }
func (r *reuseRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *reuseRecorder) reset() {
	clear(r.hdr)
	r.code = http.StatusOK
	r.body.Reset()
}

// warmSolveAllocsMax and warmSolveBytesMax bound the allocations of one
// warm /v1/solve store hit through Handler(). The store key is hashed from
// a stack buffer, the request's solver stays on the stack and the response
// is encoded into a pooled buffer, so what allocates is the per-request
// context, the body reader and the decoded request: 7 allocations and
// about 380 bytes. The byte bound sits below the 750-byte body, so a
// response buffer allocated per request fails it.
const (
	warmSolveAllocsMax = 7
	warmSolveBytesMax  = 512
)

// TestWarmSolveAllocs pins the allocations of a warm solve, by count and
// by bytes: one request (json.Marshal of a request with a seed, as Go
// clients send it) answered from the store through the whole HTTP handler.
func TestWarmSolveAllocs(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	payload, err := json.Marshal(api.SolveRequest{N: 8, C: 2, Algo: "D&C_SA", Seed: 1<<63 + 7})
	if err != nil {
		t.Fatal(err)
	}
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/"+api.SchemaVersion+"/solve", body)
	rec := &reuseRecorder{hdr: make(http.Header)}
	serve := func() {
		body.Reset(payload)
		rec.reset()
		h.ServeHTTP(rec, req)
	}
	serve() // cold: solve and store
	if rec.code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.code, rec.body.Bytes())
	}
	cold := bytes.Clone(rec.body.Bytes())
	allocs := testing.AllocsPerRun(200, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const hits = 200
	for range hits {
		serve()
	}
	runtime.ReadMemStats(&after)
	bytesPerHit := (after.TotalAlloc - before.TotalAlloc) / hits
	if !bytes.Equal(rec.body.Bytes(), cold) {
		t.Fatalf("warm answer differs from cold:\n%s\n%s", rec.body.Bytes(), cold)
	}
	if c := srv.Store().Counters(); c.Solves != 1 {
		t.Fatalf("counters %s, want one solve", c)
	}
	allocsMax := warmSolveAllocsMax
	if raceEnabled {
		// The race runtime drops a random share of sync.Pool puts, so the
		// pooled decode and reply buffers are sometimes allocated afresh
		// (7–8 allocations and 1.9–2.1 KB per hit measured): allow one more
		// allocation and check bytes in normal builds only.
		allocsMax++
	}
	if allocs > float64(allocsMax) {
		t.Fatalf("warm solve allocates %.0f times, want <= %d", allocs, allocsMax)
	}
	if !raceEnabled && bytesPerHit > warmSolveBytesMax {
		t.Fatalf("warm solve allocates %d bytes per hit, want <= %d (the body alone is %d)", bytesPerHit, warmSolveBytesMax, len(cold))
	}
	t.Logf("warm solve: %.0f allocs, %d bytes per hit, %d-byte body", allocs, bytesPerHit, len(cold))
}

// spaceReader yields n spaces.
type spaceReader struct{ n int }

func (r *spaceReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	r.n -= k
	return k, nil
}

// TestSolveErrorTexts pins the status and message of each kind of bad solve
// body over HTTP and over stdio, and the oversized body over HTTP (a stdio
// line has its own bound). The texts are encoding/json's, wrapped by
// api.Decode. A body that is not one JSON value cannot ride inside a stdio
// line, so there the line itself is rejected.
func TestSolveErrorTexts(t *testing.T) {
	srv := New(Config{})
	cases := []struct {
		name, body, msg, stdioMsg string // stdioMsg "" means msg
	}{
		{"unknown field", `{"n":8,"bogus":1}`, `bad request body: json: unknown field "bogus": invalid configuration`, ""},
		{"case-folded duplicate", `{"n":8,"N":9,"bogus":1}`, `bad request body: json: unknown field "bogus": invalid configuration`, ""},
		{"trailing data", `{"n":8} x`, `bad request body: data after the JSON value: invalid configuration`,
			`bad request line: invalid character 'x' after object key:value pair`},
		{"wrong type", `{"n":"8"}`, `bad request body: json: cannot unmarshal string into Go struct field SolveRequest.n of type int: invalid configuration`, ""},
		{"int overflow", `{"n":9223372036854775808}`, `bad request body: json: cannot unmarshal number 9223372036854775808 into Go struct field SolveRequest.n of type int: invalid configuration`, ""},
		{"fraction", `{"n":8.5}`, `bad request body: json: cannot unmarshal number 8.5 into Go struct field SolveRequest.n of type int: invalid configuration`, ""},
		{"negative seed", `{"n":8,"seed":-1}`, `bad request body: json: cannot unmarshal number -1 into Go struct field SolveRequest.seed of type uint64: invalid configuration`, ""},
		{"malformed", `{"n":8`, `bad request body: unexpected EOF: invalid configuration`,
			`bad request line: unexpected end of JSON input`},
		{"not json", `not json`, `bad request body: invalid character 'o' in literal null (expecting 'u'): invalid configuration`,
			`bad request line: invalid character 'o' in literal null (expecting 'u')`},
	}
	for _, c := range cases {
		code, buf := httpCall(srv, "solve", c.body)
		var got struct {
			Error api.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", c.name, err, buf)
		}
		if code != http.StatusBadRequest || got.Error.Kind != "config" || got.Error.Message != c.msg {
			t.Errorf("%s over HTTP: status %d, %+v\nwant 400 config %q", c.name, code, got.Error, c.msg)
		}
		if c.stdioMsg == "" {
			c.stdioMsg = c.msg
		}
		resp := stdioCall(t, srv, "solve", c.body)
		if resp.OK || resp.Error == nil || resp.Error.Kind != "config" || resp.Error.Message != c.stdioMsg {
			t.Errorf("%s over stdio: %+v, want config %q", c.name, resp.Error, c.stdioMsg)
		}
	}

	// A valid body padded past maxBodyBytes: the decoder reads the object,
	// then hits the limit while looking for the end of the body.
	rec := httptest.NewRecorder()
	over := io.MultiReader(strings.NewReader(`{"n":8,"c":2}`), &spaceReader{n: maxBodyBytes})
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+api.SchemaVersion+"/solve", over))
	var got struct {
		Error api.ErrorBody `json:"error"`
	}
	json.Unmarshal(rec.Body.Bytes(), &got)
	const overMsg = `bad request body: data after the JSON value: invalid configuration`
	if rec.Code != http.StatusBadRequest || got.Error.Kind != "config" || got.Error.Message != overMsg {
		t.Fatalf("oversized body: status %d, %s\nwant 400 config %q", rec.Code, rec.Body.Bytes(), overMsg)
	}
	if c := srv.Store().Counters(); c.Solves != 0 {
		t.Fatalf("rejected bodies solved: %s", c)
	}
}

// TestPooledRepliesStayIntact checks the reply-buffer lifetime: a solve
// reply is encoded into a pooled buffer that the transport releases once
// the reply is written. Two different solve bodies go back to back over
// HTTP, and the first reply must still hold its own bytes once the second,
// encoded into the recycled buffer, is out. Then both bodies go from
// concurrent HTTP clients and as interleaved lines of one stdio session,
// whose ops run concurrently: a buffer released twice or before its write
// would hand one buffer to two replies, and some answer would differ.
func TestPooledRepliesStayIntact(t *testing.T) {
	srv := New(Config{})
	bodies := []string{`{"n":6,"c":2}`, `{"n":8,"c":3,"algo":"OnlySA"}`}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		code, buf := httpCall(srv, "solve", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, code, buf)
		}
		want[i] = bytes.Clone(buf)
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the two bodies must have different answers")
	}

	_, first := httpCall(srv, "solve", bodies[0])
	if _, second := httpCall(srv, "solve", bodies[1]); !bytes.Equal(second, want[1]) {
		t.Fatalf("second reply:\n%s\nwant\n%s", second, want[1])
	}
	if !bytes.Equal(first, want[0]) {
		t.Fatalf("first reply changed after the second request:\n%s\nwant\n%s", first, want[0])
	}

	const clients, rounds = 4, 50
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := (c + r) % len(bodies)
				if code, got := httpCall(srv, "solve", bodies[i]); code != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("client %d round %d: status %d, reply\n%s\nwant\n%s", c, r, code, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	var in strings.Builder
	const lines = 32
	for id := range lines {
		fmt.Fprintf(&in, `{"id":%d,"op":"solve","req":%s}`+"\n", id, bodies[id%len(bodies)])
	}
	var out bytes.Buffer
	if err := srv.ServeStdio(context.Background(), strings.NewReader(in.String()), &syncWriter{w: &out}); err != nil {
		t.Fatal(err)
	}
	compact := make([][]byte, len(want))
	for i, w := range want {
		var b bytes.Buffer
		if err := json.Compact(&b, w); err != nil {
			t.Fatal(err)
		}
		compact[i] = b.Bytes()
	}
	seen := 0
	for _, line := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
		var resp struct {
			ID     int             `json:"id"`
			OK     bool            `json:"ok"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &resp); err != nil || !resp.OK {
			t.Fatalf("stdio line %s: %v", line, err)
		}
		if w := compact[resp.ID%len(bodies)]; !bytes.Equal(resp.Result, w) {
			t.Fatalf("stdio id %d result:\n%s\nwant\n%s", resp.ID, resp.Result, w)
		}
		seen++
	}
	if seen != lines {
		t.Fatalf("stdio answered %d of %d lines", seen, lines)
	}
}
