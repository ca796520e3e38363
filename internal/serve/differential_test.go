package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"explink/internal/api"
)

// opSamples holds, per op, one valid request, requests that must be
// rejected and other spellings of the valid request that must be answered
// byte for byte like it. An op in the table without an entry here fails the
// differential test, so a new op cannot skip it. An empty valid body skips
// the answer comparison (exp reports wall-clock seconds, so two runs never
// match).
var opSamples = map[string]struct {
	valid      string
	invalid    []string
	equivalent []string
}{
	"solve": {`{"n":6,"c":3}`, []string{`{"n":1}`, `{"n":6,"bogus":1}`}, []string{
		// Spellings the solve decode fast path takes...
		`{"c":3,"n":6}`,
		" {\t\"n\" : 6 ,  \"c\":3 }\t ",
		`{"n":6,"c":3,"algo":"D\u0026C_SA","seed":1}`,
		`{"n":6,"c":3,"algo":"\u0044&C\u005FSA"}`,
		`{"n":6,"c":3,"algo":"D&C_SA","baseWidth":256,"worstWeight":0,"moves":0}`,
		`{"n":6,"c":3,"algo":"\u0044\u0026C_SA","worstWeight":0e5}`,
		// ...and ones only encoding/json accepts.
		`{"N":6,"C":3}`,
		`{"n":6,"c":3,"Algo":"D\u0026C_SA"}`,
		`{"n":6,"c":3,"seed":null}`,
		`{"n":6,"c":3,"algo":"D&C_SA","algo":"D&C_SA"}`,
		`{"n":6,"c":3,"algo":"D\u0026C\u005f\u0053\u0041","moves":0,"c":3}`,
	}},
	"eval":   {`{"n":6,"c":2,"express":[{"From":0,"To":3}]}`, []string{`{"n":6,"c":0}`, `{"n":6,"c":2,"bogus":1}`}, nil},
	"sim":    {`{"n":4,"warmup":100,"measure":400,"drain":2000}`, []string{`{"n":8,"rate":2}`, `{"n":4,"bogus":1}`}, nil},
	"exp":    {``, []string{`{"experiments":["nope"]}`, `{"bogus":1}`}, nil},
	"pareto": {`{"n":6,"c":2,"moves":1500}`, []string{`{"n":8,"objectives":["area"]}`, `{"n":6,"bogus":1}`}, nil},
}

// httpCall posts body to /v1/<op> on srv's handler.
func httpCall(srv *Server, op, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+api.SchemaVersion+"/"+op, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// stdioCall sends one request line for op over a fresh stdio session on srv.
func stdioCall(t *testing.T, srv *Server, op, body string) stdioResponse {
	t.Helper()
	var out bytes.Buffer
	line := `{"id":1,"op":"` + op + `","req":` + body + "}\n"
	if err := srv.ServeStdio(context.Background(), strings.NewReader(line), &syncWriter{w: &out}); err != nil {
		t.Fatalf("stdio %s: %v", op, err)
	}
	var resp stdioResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("stdio %s: response not JSON: %v\n%s", op, err, out.Bytes())
	}
	return resp
}

// errorKind reads the kind of an HTTP error body.
func errorKind(buf []byte) string {
	var body struct {
		Error api.ErrorBody `json:"error"`
	}
	json.Unmarshal(buf, &body)
	return body.Error.Kind
}

// TestHTTPAndStdioAgree sends the same requests for every op in the table
// over both transports: a valid request must produce the same answer (the
// stdio result is the compacted HTTP body; sim compares with wall-clock
// fields zeroed), each equivalent spelling of it exactly that answer on
// each transport, and every invalid one the same config error.
func TestHTTPAndStdioAgree(t *testing.T) {
	srv := New(Config{})
	for _, op := range api.Ops {
		t.Run(op.Name, func(t *testing.T) {
			sample, ok := opSamples[op.Name]
			if !ok {
				t.Fatalf("op %q has no sample requests", op.Name)
			}
			if sample.valid != "" {
				code, body := httpCall(srv, op.Name, sample.valid)
				if code != http.StatusOK {
					t.Fatalf("HTTP: status %d: %s", code, body)
				}
				resp := stdioCall(t, srv, op.Name, sample.valid)
				if !resp.OK || resp.Error != nil {
					t.Fatalf("stdio: %+v", resp)
				}
				if op.Name == "sim" {
					var h, s api.SimResponse
					if err := json.Unmarshal(body, &h); err != nil || h.Result == nil {
						t.Fatalf("HTTP sim body %s (%v)", body, err)
					}
					if err := json.Unmarshal(resp.Result, &s); err != nil || s.Result == nil {
						t.Fatalf("stdio sim result %s (%v)", resp.Result, err)
					}
					// Wall-clock fields are the only ones two runs may differ in.
					h.Result.WallTime, h.Result.CyclesPerSec = 0, 0
					s.Result.WallTime, s.Result.CyclesPerSec = 0, 0
					if !reflect.DeepEqual(h.Result, s.Result) {
						t.Fatalf("sim results differ:\nHTTP  %s\nstdio %s", body, resp.Result)
					}
				} else {
					var compact bytes.Buffer
					if err := json.Compact(&compact, body); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(compact.Bytes(), resp.Result) {
						t.Fatalf("stdio result is not the compacted HTTP body:\nHTTP  %s\nstdio %s", compact.Bytes(), resp.Result)
					}
				}
				for _, eq := range sample.equivalent {
					if code, got := httpCall(srv, op.Name, eq); code != http.StatusOK || !bytes.Equal(got, body) {
						t.Fatalf("HTTP %s: status %d, answer differs from %s:\n%s\n%s", eq, code, sample.valid, got, body)
					}
					if got := stdioCall(t, srv, op.Name, eq); !got.OK || !bytes.Equal(got.Result, resp.Result) {
						t.Fatalf("stdio %s: answer differs from %s:\n%+v\n%s", eq, sample.valid, got, resp.Result)
					}
				}
			}
			for _, bad := range sample.invalid {
				code, body := httpCall(srv, op.Name, bad)
				resp := stdioCall(t, srv, op.Name, bad)
				if code != http.StatusBadRequest || errorKind(body) != "config" {
					t.Fatalf("HTTP %s: status %d: %s", bad, code, body)
				}
				if resp.OK || resp.Error == nil || resp.Error.Kind != "config" {
					t.Fatalf("stdio %s: %+v", bad, resp)
				}
			}
		})
	}
}
