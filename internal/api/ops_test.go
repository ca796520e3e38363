package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"explink/internal/runctl"
)

func TestOpsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range Ops {
		if op.Name == "" || seen[op.Name] {
			t.Fatalf("op name %q empty or duplicated", op.Name)
		}
		seen[op.Name] = true
		if got, ok := Lookup(op.Name); !ok || got.Name != op.Name {
			t.Fatalf("Lookup(%q) = %q, %v", op.Name, got.Name, ok)
		}
	}
	for _, name := range []string{"", "ping", "shutdown", "Solve"} {
		if _, ok := Lookup(name); ok {
			t.Fatalf("Lookup(%q) found an op", name)
		}
	}
}

func TestDecodeStrict(t *testing.T) {
	good := []string{`{"n":4,"c":2}`, " {\"n\":4}\n\t ", `{}`}
	for _, body := range good {
		var r SolveRequest
		if err := Decode(strings.NewReader(body), &r); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	}
	bad := []string{
		`{"n":4,"c":2} trailing-garbage`,
		`{"n":4}{"n":5}`,
		`{"n":4} 5`,
		`{"n":4}}`,
		`{"n":4,"typo":1}`,
		`{"n":4`,
		``,
		`not json`,
	}
	for _, body := range bad {
		var r SolveRequest
		if err := Decode(strings.NewReader(body), &r); !errors.Is(err, runctl.ErrConfig) {
			t.Fatalf("%q: got %v, want a config error", body, err)
		}
	}
}

// TestSimSizeCap: a sim past MaxSimN is rejected before anything is built
// (at n=128 the route tables alone exhaust memory and kill the process).
func TestSimSizeCap(t *testing.T) {
	for _, n := range []int{MaxSimN + 1, 128, 1 << 40} {
		r := SimRequest{N: n}
		r.Normalize()
		if err := r.Validate(); !errors.Is(err, runctl.ErrConfig) {
			t.Fatalf("n=%d: got %v, want a config error", n, err)
		}
	}
	r := SimRequest{N: MaxSimN}
	r.Normalize()
	if err := r.Validate(); err != nil {
		t.Fatalf("n=%d: %v", MaxSimN, err)
	}
	for _, req := range []request{&SolveRequest{N: MaxN + 1}, &ParetoRequest{N: MaxN + 1}, &EvalRequest{N: MaxN + 1, C: 1}} {
		req.Normalize()
		if err := req.Validate(); !errors.Is(err, runctl.ErrConfig) {
			t.Fatalf("%T n=%d: got %v, want a config error", req, MaxN+1, err)
		}
	}
}

// TestEncodedFailureReturnsNoBody: an encoder that fails after partial
// output leaves no body in the reply, so no transport can send half a
// document.
func TestEncodedFailureReturnsNoBody(t *testing.T) {
	rep, err := encoded(func(w io.Writer) error {
		io.WriteString(w, `{"best": `)
		return errors.New("cannot encode")
	})
	if err == nil || rep.Body != nil {
		t.Fatalf("reply %q, error %v", rep.Body, err)
	}
}

// FuzzOpDecode drives the table's decode → Normalize → Validate steps on an
// arbitrary (op, body) pair without running the op: nothing panics, every
// rejection is a config error, Normalize is idempotent, no sim request past
// MaxSimN validates and no sim or exp request past MaxReplicas does. The
// checked-in corpus holds one valid body per op plus a trailing-data body, an
// n=65 sim, sim and exp bodies with 65 replicas and a seed-0 solve.
func FuzzOpDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, opIndex uint8, body []byte) {
		op := Ops[int(opIndex)%len(Ops)]
		req := op.newReq()
		if err := Decode(bytes.NewReader(body), req); err != nil {
			if !errors.Is(err, runctl.ErrConfig) {
				t.Fatalf("%s: decode error %v is not a config error", op.Name, err)
			}
			return
		}
		req.Normalize()
		once, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: re-encoding a decoded request: %v", op.Name, err)
		}
		req.Normalize()
		if twice, _ := json.Marshal(req); !bytes.Equal(once, twice) {
			t.Fatalf("%s: Normalize is not idempotent:\n%s\n%s", op.Name, once, twice)
		}
		err = req.Validate()
		if err != nil && !errors.Is(err, runctl.ErrConfig) {
			t.Fatalf("%s: validation error %v is not a config error", op.Name, err)
		}
		if err != nil {
			return
		}
		switch r := req.(type) {
		case *SimRequest:
			if r.N > MaxSimN || r.Replicas > MaxReplicas {
				t.Fatalf("sim with n=%d, replicas=%d validated", r.N, r.Replicas)
			}
		case *ExpRequest:
			if r.Replicas > MaxReplicas {
				t.Fatalf("exp with replicas=%d validated", r.Replicas)
			}
		}
	})
}
