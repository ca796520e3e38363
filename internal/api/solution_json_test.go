package api

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"explink/internal/topo"
)

// oracleEncode is the encoding/json path SolveResponse.Encode replaced: the
// appender must reproduce its bytes and its failures exactly.
func oracleEncode(r SolveResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return buf.Bytes(), err
}

// countingWriter records every Write call.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// checkAgainstOracle encodes r both ways and fails on any difference in
// bytes or in the error; a failing encode must write nothing, and a
// successful one must write in a single call.
func checkAgainstOracle(t *testing.T, r SolveResponse) {
	t.Helper()
	want, werr := oracleEncode(r)
	var got countingWriter
	gerr := r.Encode(&got)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("error mismatch: appender %v, encoding/json %v\nresponse %+v", gerr, werr, r)
	}
	if gerr != nil {
		if got.writes != 0 || got.Len() != 0 || len(want) != 0 {
			t.Fatalf("failed encode wrote %d bytes in %d writes (oracle %d bytes)", got.Len(), got.writes, len(want))
		}
		return
	}
	if got.writes != 1 {
		t.Fatalf("encode took %d writes, want 1", got.writes)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("bytes differ from encoding/json:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// TestSolveResponseEncodeMatchesOracle runs real solves — single C and full
// sweeps, every algorithm — through both encoders.
func TestSolveResponseEncodeMatchesOracle(t *testing.T) {
	reqs := []SolveRequest{
		{N: 6, C: 2},
		{N: 6},
		{N: 8, C: 4, Algo: "OnlySA", Moves: 500},
		{N: 8, Algo: "InitOnly"},
		{N: 2, C: 1},
	}
	for _, req := range reqs {
		req.Normalize()
		best, all, err := req.Solve(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, NewSolveResponse(best, all))
	}
}

// TestSolveResponseEncodeAllocs pins the encoder's allocations on a large
// response (n=16, C=8 D&C_SA): the output buffer, and little else.
func TestSolveResponseEncodeAllocs(t *testing.T) {
	req := SolveRequest{N: 16, C: 8}
	req.Normalize()
	best, all, err := req.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewSolveResponse(best, all)
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := resp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("SolveResponse.Encode allocates %.0f times, want <= 4", allocs)
	}
	t.Logf("SolveResponse.Encode: %.0f allocs, %d bytes", allocs, buf.Len())
}

// FuzzSolveResponseEncode compares the appender with the encoding/json
// oracle on responses built from raw integers and raw float bits, so signed
// zeros, subnormals, the 1e-6 and 1e21 format switches, NaN and ±Inf are
// all reachable. express and all pick nil, empty or populated slices.
func FuzzSolveResponseEncode(f *testing.F) {
	b := math.Float64bits
	f.Add(int64(4), int64(64), int64(1234), b(12.5), b(3), b(15.5), []byte{0, 3, 3, 7}, uint8(2), uint8(2))
	f.Add(int64(-1), int64(math.MinInt64), int64(math.MaxInt64), b(0), b(math.Copysign(0, -1)), b(1), []byte{}, uint8(0), uint8(0))
	f.Add(int64(0), int64(0), int64(0), uint64(1), uint64(0x000fffffffffffff), b(-5e-324), []byte{1}, uint8(1), uint8(1))
	f.Add(int64(1), int64(2), int64(3), b(1e-6), b(math.Nextafter(1e-6, 0)), b(-1e-7), []byte{0, 1}, uint8(2), uint8(1))
	f.Add(int64(1), int64(2), int64(3), b(1e21), b(math.Nextafter(1e21, 0)), b(-math.MaxFloat64), []byte{9, 255}, uint8(1), uint8(2))
	f.Add(int64(8), int64(32), int64(9), b(math.NaN()), b(2), b(3), []byte{0, 2}, uint8(2), uint8(2))
	f.Add(int64(8), int64(32), int64(9), b(1), b(math.Inf(1)), b(3), []byte{}, uint8(0), uint8(2))
	f.Add(int64(8), int64(32), int64(9), b(1), b(2), b(math.Inf(-1)), []byte{}, uint8(1), uint8(0))
	f.Add(int64(math.MaxInt64), int64(-7), int64(math.MinInt64), b(1e-300), b(1.5e300), b(123456789.125), []byte{128, 127, 200, 1}, uint8(2), uint8(0))
	// Short decimals, which the encoder prints by its integer path, at and
	// around the edges of that path (1e-4 and 1e10), and non-short values.
	f.Add(int64(4), int64(64), int64(99), b(12.25), b(3.0625), b(15.3125), []byte{0, 2, 2, 5}, uint8(2), uint8(2))
	f.Add(int64(2), int64(128), int64(7), b(0.0001), b(9999999999.9999), b(1e10), []byte{1, 3}, uint8(2), uint8(2))
	f.Add(int64(2), int64(128), int64(7), b(-0.05), b(0.30000000000000004), b(math.Nextafter(1e10, 0)), []byte{}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, c, width, evals int64, head, ser, total uint64, spans []byte, express, all uint8) {
		sol := Solution{
			C: int(c), Width: int(width), Evals: evals,
			Head: math.Float64frombits(head), Ser: math.Float64frombits(ser), Total: math.Float64frombits(total),
		}
		switch express % 3 {
		case 1:
			sol.Express = []topo.Span{}
		case 2:
			sol.Express = []topo.Span{{From: int(c), To: int(width)}}
			for i := 0; i+1 < len(spans); i += 2 {
				sol.Express = append(sol.Express, topo.Span{From: int(int8(spans[i])), To: int(spans[i+1])})
			}
		}
		r := SolveResponse{Best: sol}
		switch all % 3 {
		case 1:
			r.All = []Solution{}
		case 2:
			other := sol
			other.Head, other.Total, other.Express = sol.Total, sol.Head, nil
			r.All = []Solution{sol, other}
		}
		checkAgainstOracle(t, r)
	})
}
