package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// warmSolveAllocsMax bounds the allocations of one warm /v1/solve store hit
// through Handler(). The store key is hashed from a stack buffer and the
// request's solver stays on the stack, so what allocates is the per-request
// context, the body reader, the decoded request and the response.
const warmSolveAllocsMax = 10

// TestWarmSolveAllocs pins the allocations of a warm solve: one request
// (json.Marshal of a request with a seed, as Go clients send it) answered
// from the store through the whole HTTP handler.
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
	if !bytes.Equal(rec.body.Bytes(), cold) {
		t.Fatalf("warm answer differs from cold:\n%s\n%s", rec.body.Bytes(), cold)
	}
	if c := srv.Store().Counters(); c.Solves != 1 {
		t.Fatalf("counters %s, want one solve", c)
	}
	if allocs > warmSolveAllocsMax {
		t.Fatalf("warm solve allocates %.0f times, want <= %d", allocs, warmSolveAllocsMax)
	}
	t.Logf("warm solve: %.0f allocs", allocs)
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
