package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"explink/internal/api"
)

// TestParetoEndpointBytesMatchCLI is the tentpole's transport acceptance: the
// daemon's /v1/pareto bytes equal the CLI encoder's output for the same
// request, and a warm re-query answers from the store without solving.
func TestParetoEndpointBytesMatchCLI(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	const body = `{"n":6,"c":2,"moves":1500}`

	code, buf := post(t, ts.URL+"/v1/pareto", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}

	req := api.ParetoRequest{N: 6, C: 2, Moves: 1500}
	req.Normalize()
	f, err := req.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := api.NewParetoResponse(f).Encode(&cli); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, cli.Bytes()) {
		t.Fatalf("daemon response != CLI bytes:\n%s\nvs\n%s", buf, cli.String())
	}

	solves := srv.Store().Counters().Solves
	if solves == 0 {
		t.Fatal("cold pareto request solved nothing")
	}
	code, warm := post(t, ts.URL+"/v1/pareto", body)
	if code != http.StatusOK || !bytes.Equal(warm, buf) {
		t.Fatalf("warm re-query diverged (status %d)", code)
	}
	if got := srv.Store().Counters().Solves; got != solves {
		t.Fatalf("warm re-query re-solved: %d -> %d", solves, got)
	}
}

func TestParetoEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []string{
		`{"n":1}`,
		`{"n":8,"c":-1}`,
		`{"n":8,"objectives":["area"]}`,
		`{"n":8,"archiveCap":-1}`,
		`{"n":8,"typo":true}`,
		`not json`,
	}
	for _, body := range cases {
		code, buf := post(t, ts.URL+"/v1/pareto", body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", body, code, buf)
		}
		var eb struct {
			Error api.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(buf, &eb); err != nil || eb.Error.Kind != "config" {
			t.Fatalf("%s: error body %s (%v)", body, buf, err)
		}
	}
}

// TestStdioPareto drives the pareto op over the JSON-lines transport.
func TestStdioPareto(t *testing.T) {
	srv := New(Config{})
	ss := startStdio(t, srv)

	ss.send(t, `{"id":1,"op":"pareto","req":{"n":6,"c":2,"moves":1500}}`)
	resp := ss.recv(t)
	if !resp.OK || string(resp.ID) != "1" {
		t.Fatalf("pareto: %+v", resp)
	}
	var pr api.ParetoResponse
	if err := json.Unmarshal(resp.Result, &pr); err != nil {
		t.Fatalf("pareto result: %v\n%s", err, resp.Result)
	}
	if len(pr.Points) == 0 || pr.Evals <= 0 || len(pr.Objectives) != 3 {
		t.Fatalf("pareto result degenerate: %+v", pr)
	}

	// Malformed payloads stay config-typed on this transport too.
	ss.send(t, `{"id":2,"op":"pareto","req":{"n":8,"objectives":["area"]}}`)
	resp = ss.recv(t)
	if resp.OK || resp.Error == nil || resp.Error.Kind != "config" {
		t.Fatalf("bad pareto: %+v", resp)
	}

	ss.send(t, `{"id":3,"op":"shutdown"}`)
	ss.recv(t)
	if err := <-ss.done; err != nil {
		t.Fatal(err)
	}
}

// TestParetoHugeArchiveCap is the regression test for an archive cap far
// beyond what a search can fill: it passes validation, so both transports
// must answer it normally instead of sizing the archive from the cap.
func TestParetoHugeArchiveCap(t *testing.T) {
	const req = `{"n":8,"c":4,"archiveCap":1099511627776}`
	srv, ts := newTestServer(t, Config{})
	code, buf := post(t, ts.URL+"/v1/pareto", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}
	var pr api.ParetoResponse
	if err := json.Unmarshal(buf, &pr); err != nil || len(pr.Points) == 0 {
		t.Fatalf("pareto response %s (%v)", buf, err)
	}

	ss := startStdio(t, srv)
	ss.send(t, `{"id":1,"op":"pareto","req":`+req+`}`)
	resp := ss.recv(t)
	if !resp.OK || resp.Error != nil {
		t.Fatalf("stdio pareto: %+v", resp)
	}
	var sr api.ParetoResponse
	if err := json.Unmarshal(resp.Result, &sr); err != nil || len(sr.Points) != len(pr.Points) {
		t.Fatalf("stdio pareto result %s (%v), want %d points", resp.Result, err, len(pr.Points))
	}
	ss.send(t, `{"id":2,"op":"shutdown"}`)
	ss.recv(t)
	if err := <-ss.done; err != nil {
		t.Fatal(err)
	}
}

// TestHugeMoveBudgetAnswersOnDeadline is the regression test for a move
// budget of math.MaxInt: it passes validation, so on both transports a solve
// or pareto request with a short deadline must come back as a cancelled
// error instead of crashing the daemon while sizing the search.
func TestHugeMoveBudgetAnswersOnDeadline(t *testing.T) {
	const body = `{"n":8,"c":4,"moves":9223372036854775807}`
	srv := New(Config{})
	for _, op := range []string{"solve", "pareto"} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		req := httptest.NewRequest(http.MethodPost, "/v1/"+op, strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		cancel()
		var resp struct {
			Error api.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code == http.StatusOK || resp.Error.Kind != "cancelled" {
			t.Fatalf("HTTP %s: status %d: %s (%v)", op, rec.Code, rec.Body.Bytes(), err)
		}

		ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
		var out bytes.Buffer
		err := srv.ServeStdio(ctx, strings.NewReader(`{"id":1,"op":"`+op+`","req":`+body+"}\n"), &syncWriter{w: &out})
		cancel()
		var line stdioResponse
		if err != nil || json.Unmarshal(out.Bytes(), &line) != nil || line.OK || line.Error == nil || line.Error.Kind != "cancelled" {
			t.Fatalf("stdio %s: %v: %s", op, err, out.Bytes())
		}
	}
}
