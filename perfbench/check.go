package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"

	"explink/internal/api"
	"explink/internal/model"
	"explink/internal/sim"
	"explink/internal/topo"
)

// fixtureSeed is the workload seed whose response digests are pinned in
// testdata: the repo's byte-identical-output invariant, checked on every run
// made with this seed.
const fixtureSeed = 1

//go:embed testdata/*.sha256
var fixtureFS embed.FS

// fixtureFile names the digest file of an op list; solve-cold and solve-warm
// share one list and, by the warm==cold byte check, one fixture.
func fixtureFile(list string) string { return "testdata/" + list + ".sha256" }

// loadFixture reads the pinned digests of an op list, one "<index> <class>
// <sha256>" line per op.
func loadFixture(list string) ([]string, error) {
	raw, err := fixtureFS.ReadFile(fixtureFile(list))
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", list, err)
	}
	var sums []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != fmt.Sprint(len(sums)) {
			return nil, fmt.Errorf("fixture %s: malformed line %q", list, sc.Text())
		}
		sums = append(sums, f[2])
	}
	return sums, sc.Err()
}

// writeFixture records the digests of one verified pass under dir.
func writeFixture(dir, list string, ops []op, canon [][]byte) error {
	var b strings.Builder
	for i, o := range ops {
		fmt.Fprintf(&b, "%d %s %s\n", i, o.class, digest(canon[i]))
	}
	return os.WriteFile(filepath.Join(dir, list+".sha256"), []byte(b.String()), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timingField matches the two wall-clock fields of a sim.Result in the
// daemon's indented JSON; they are the only bytes that differ between two
// runs of one request.
var timingField = regexp.MustCompile(`("(?:WallTime|CyclesPerSec)": )[^,\n}]+`)

// canonical returns the response bytes that must repeat exactly: the body
// itself for solves, the body with timing fields zeroed for sims.
func canonical(o *op, body []byte) []byte {
	if o.sim == nil {
		return body
	}
	return timingField.ReplaceAll(body, []byte("${1}0"))
}

// verifier checks every response of one op list. The first response of each
// op gets the full semantic check (and the fixture check on fixtureSeed);
// every later response must repeat its canonical bytes exactly.
type verifier struct {
	ops     []op
	fixture []string // nil unless the run uses fixtureSeed
	canon   [][]byte // verified canonical bytes per op, nil until first seen
}

func newVerifier(ops []op, fixture []string) *verifier {
	return &verifier{ops: ops, fixture: fixture, canon: make([][]byte, len(ops))}
}

func (v *verifier) check(i int, rec *recorder) error {
	o := &v.ops[i]
	if rec.code != http.StatusOK {
		return fmt.Errorf("op %d (%s): HTTP %d: %s", i, o.class, rec.code, bytes.TrimSpace(rec.buf.Bytes()))
	}
	canon := canonical(o, rec.buf.Bytes())
	if v.canon[i] != nil {
		if !bytes.Equal(canon, v.canon[i]) {
			return fmt.Errorf("op %d (%s): response differs from the verified one", i, o.class)
		}
		return nil
	}
	if err := checkSemantics(o, rec.buf.Bytes()); err != nil {
		return fmt.Errorf("op %d (%s): %w", i, o.class, err)
	}
	if v.fixture != nil {
		if i >= len(v.fixture) || digest(canon) != v.fixture[i] {
			return fmt.Errorf("op %d (%s): response digest differs from the fixture", i, o.class)
		}
	}
	v.canon[i] = bytes.Clone(canon)
	return nil
}

// checkSemantics validates a response body against its request.
func checkSemantics(o *op, body []byte) error {
	if o.solve != nil {
		return checkSolve(o.solve, body)
	}
	return checkSim(o.sim, body)
}

// checkSolve: one solution at the requested C, within the link limit at every
// cross-section, whose reported latency Config.EvalRow reproduces exactly.
func checkSolve(req *api.SolveRequest, body []byte) error {
	var resp api.SolveResponse
	if err := strictDecode(body, &resp); err != nil {
		return err
	}
	if len(resp.All) != 1 || !reflect.DeepEqual(resp.All[0], resp.Best) {
		return fmt.Errorf("want exactly the best solution in all, got %d", len(resp.All))
	}
	best := resp.Best
	if best.C != req.C {
		return fmt.Errorf("solved C=%d, asked for %d", best.C, req.C)
	}
	row := topo.Row{N: req.N, Express: best.Express}
	if m := row.MaxCrossSection(); m > req.C {
		return fmt.Errorf("max cross-section %d exceeds C=%d", m, req.C)
	}
	cfg := model.DefaultConfig(req.N)
	cfg.BW.BaseWidth = req.BaseWidth
	ev, err := cfg.EvalRow(row, req.C)
	if err != nil {
		return fmt.Errorf("re-evaluating the returned row: %w", err)
	}
	if ev.Width != best.Width || ev.Head != best.Head || ev.Ser != best.Ser || ev.Total != best.Total {
		return fmt.Errorf("EvalRow gives %v, response reports width %d head %v ser %v total %v",
			ev, best.Width, best.Head, best.Ser, best.Total)
	}
	return nil
}

// checkSim: no error body, the requested number of runs, and every run
// drained untruncated with injected packets and flits all ejected.
func checkSim(req *api.SimRequest, body []byte) error {
	var resp api.SimResponse
	if err := strictDecode(body, &resp); err != nil {
		return err
	}
	if resp.Error != nil {
		return fmt.Errorf("error body: %s: %s", resp.Error.Kind, resp.Error.Message)
	}
	runs := resp.Replicas
	if req.Replicas <= 1 {
		if resp.Result == nil {
			return fmt.Errorf("no result")
		}
		runs = append(runs, *resp.Result)
	}
	if len(runs) != req.Replicas {
		return fmt.Errorf("%d runs, asked for %d", len(runs), req.Replicas)
	}
	for i, r := range runs {
		if err := checkRun(r); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
	}
	return nil
}

// checkRun: the run drained untruncated, measured packets, and ejected every
// packet and flit it injected.
func checkRun(r sim.Result) error {
	c := r.Counts
	switch {
	case !r.Drained || r.Truncated != "":
		return fmt.Errorf("did not drain (truncated %q)", r.Truncated)
	case r.Cycles <= 0 || r.MeasuredPackets <= 0:
		return fmt.Errorf("measured nothing")
	case c.PacketsInjected != c.PacketsEjected || c.FlitsInjected != c.FlitsEjected:
		return fmt.Errorf("lost traffic: packets %d/%d flits %d/%d ejected/injected",
			c.PacketsEjected, c.PacketsInjected, c.FlitsEjected, c.FlitsInjected)
	}
	return nil
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}
