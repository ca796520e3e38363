package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"explink/internal/core"
)

// marshalledSolveBodies returns json.Marshal of one request per solve class
// the benchmark mix sends (n, C, algorithm, worst-case blend) at small seeds
// and seeds past 2^63: the bodies Go clients send, with the & of D&C_SA
// written as \u0026.
func marshalledSolveBodies(t testing.TB) [][]byte {
	classes := []SolveRequest{
		{N: 8, C: 2, Algo: string(core.DCSA)}, {N: 8, C: 4, Algo: string(core.DCSA)},
		{N: 8, C: 8, Algo: string(core.DCSA)}, {N: 16, C: 2, Algo: string(core.DCSA)},
		{N: 16, C: 4, Algo: string(core.DCSA)}, {N: 16, C: 8, Algo: string(core.DCSA)},
		{N: 8, C: 4, Algo: string(core.DCSA), WorstWeight: 0.5}, {N: 8, C: 2, Algo: string(core.DCSA), WorstWeight: 0.5},
		{N: 16, C: 8, Algo: string(core.DCSA), WorstWeight: 0.5}, {N: 8, C: 2, Algo: string(core.OnlySA)},
		{N: 8, C: 4, Algo: string(core.OnlySA)}, {N: 16, C: 2, Algo: string(core.OnlySA)},
		{N: 16, C: 4, Algo: string(core.OnlySA)},
	}
	var out [][]byte
	for _, seed := range []uint64{1, 17, 1<<63 + 12345, 1<<64 - 1} {
		for _, r := range classes {
			r.Seed = seed
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// sameRequest compares requests field by field, worstWeight by its bits:
// -0 and 0 are different store keys.
func sameRequest(a, b SolveRequest) bool {
	return a == b && math.Float64bits(a.WorstWeight) == math.Float64bits(b.WorstWeight)
}

// TestSolveFastPathFires: every body json.Marshal writes for a solve — the
// benchmark's and any Go client's — takes the hand parser, and so do
// reordered keys, whitespace and the accepted escapes.
func TestSolveFastPathFires(t *testing.T) {
	bodies := marshalledSolveBodies(t)
	for _, s := range []string{
		`{}`,
		` {"n":8} `,
		"{\n\t\"algo\" : \"OnlySA\",\r\n \"n\" : 16 , \"c\":4}\n",
		`{"worstWeight":0.25,"baseWidth":128,"moves":5000,"seed":9,"c":2,"n":8}`,
		`{"n":8,"algo":"D&C_SA"}`,
		`{"n":8,"algo":"D&c_sa"}`,
		`{"n":8,"algo":"In\/it\\Only\""}`,
		`{"n":8,"worstWeight":1e-1}`,
		`{"n":-0,"c":0,"moves":-5}`,
		`{"n":8,"worstWeight":-0}`,
	} {
		bodies = append(bodies, []byte(s))
	}
	for _, b := range bodies {
		var fast, ref SolveRequest
		if !parseSolveRequest(b, &fast) {
			t.Fatalf("fast path declined %s", b)
		}
		if err := Decode(bytes.NewReader(b), &ref); err != nil {
			t.Fatalf("Decode(%s): %v", b, err)
		}
		if !sameRequest(fast, ref) {
			t.Fatalf("%s: fast %+v, Decode %+v", b, fast, ref)
		}
	}
}

// TestSolveFastPathDeclines: bodies outside the canonical subset go to
// Decode, whether Decode then accepts them or not.
func TestSolveFastPathDeclines(t *testing.T) {
	for _, s := range []string{
		``, ` `, `null`, `[]`, `{`, `{"n":8`, `{"n":8,}`, `{"n":8}{}`, `{"n":8} x`,
		`{"N":8}`, `{"ſeed":3}`, `{"n":8,"n":9}`, `{"n":null}`, `{"bogus":1}`,
		`{"n":+1}`, `{"n":1.}`, `{"n":.5}`, `{"n":01}`, `{"n":1e2}`, `{"n":8.0}`,
		`{"n":9223372036854775808}`, `{"seed":18446744073709551616}`, `{"seed":-0}`, `{"seed":-1}`,
		`{"worstWeight":1e400}`, `{"worstWeight":+1}`, `{"worstWeight":"1"}`,
		`{"algo":"a\u00"}`, `{"algo":"Ā"}`, `{"algo":"\n"}`, "{\"algo\":\"\x01\"}", `{"algo":"é"}`,
		"\ufeff{\"n\":8}", `{"algo":8}`, `{"n":"8"}`, `{"n":true}`,
	} {
		var r SolveRequest
		if parseSolveRequest([]byte(s), &r) {
			t.Fatalf("fast path accepted %q as %+v", s, r)
		}
	}
}

// FuzzSolveRequestDecode holds the solve fast path to strict Decode: on any
// body the hand parser either declines, or yields exactly the request Decode
// yields from a body Decode accepts; and the op's whole decode (fast path
// plus fallback) returns Decode's request and error text.
func FuzzSolveRequestDecode(f *testing.F) {
	for _, b := range marshalledSolveBodies(f) {
		f.Add(b)
	}
	for _, lit := range []string{"+1", "1.", ".5", "01", "-0", "1e2"} {
		f.Add([]byte(`{"n":` + lit + `}`))
	}
	for _, s := range []string{
		`{"seed":9223372036854775808}`, `{"seed":18446744073709551616}`,
		`{"N":8}`, `{"ſeed":3}`,
		`{"n":8,"n":9}`, `null`, `{"n":null}`, "{\"algo\":\"\x01\"}", `{"algo":"\u0000"}`,
		"\ufeff{\"n\":8}", `{"n":8}{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref SolveRequest
		refErr := Decode(bytes.NewReader(body), &ref)
		var fast SolveRequest
		if parseSolveRequest(body, &fast) {
			if refErr != nil {
				t.Fatalf("fast path accepted %q, Decode rejects it: %v", body, refErr)
			}
			if !sameRequest(fast, ref) {
				t.Fatalf("%q: fast %+v, Decode %+v", body, fast, ref)
			}
		}
		var got SolveRequest
		err := got.decodeBody(bytes.NewReader(body))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%q: decodeBody error %v, Decode error %v", body, err, refErr)
		}
		if err == nil && !sameRequest(got, ref) {
			t.Fatalf("%q: decodeBody %+v, Decode %+v", body, got, ref)
		}
	})
}

// TestSolveDecodeLongBody: a body past the buffer decodes through the
// fallback over the whole stream, valid or not.
func TestSolveDecodeLongBody(t *testing.T) {
	pad := strings.Repeat(" ", solveBufSize)
	for _, s := range []string{`{"n":8,"c":2}` + pad, pad + `{"n":8,"c":2}`, `{"n":8}` + pad + `x`} {
		var got, ref SolveRequest
		err := got.decodeBody(strings.NewReader(s))
		refErr := Decode(strings.NewReader(s), &ref)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || got != ref {
			t.Fatalf("len %d: decodeBody %+v %v, Decode %+v %v", len(s), got, err, ref, refErr)
		}
	}
}
