package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/runctl"
	"explink/internal/serve"
	"explink/internal/stats"
)

// testSuite is a tiny real suite (the two cheapest experiments): fast enough
// to run for real in end-to-end tests, real enough to exercise the registry.
func testSuite(t *testing.T) Suite {
	t.Helper()
	s, err := SuiteOf([]string{"fig10", "fig12"}, true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeReport builds a minimal valid completion for the named experiment.
func fakeReport(t *testing.T, name string) []byte {
	t.Helper()
	rep := stats.NewReport(name)
	rep.Note("synthetic")
	raw, _, err := stats.MarshalSanitized(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestCoordinator(t *testing.T, journal string) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{Suite: testSuite(t), JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSuiteFingerprint(t *testing.T) {
	a := testSuite(t)
	if a.Fingerprint() != testSuite(t).Fingerprint() {
		t.Fatal("equal suites must fingerprint equally")
	}
	b := a
	b.Quick = false
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fidelity change must change the fingerprint")
	}
	c := a
	c.Seed = 7
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("seed change must change the fingerprint")
	}
}

func TestCoordinatorLeaseCompleteDone(t *testing.T) {
	ctx := context.Background()
	c := newTestCoordinator(t, "")

	// Lease both units: sequence order, distinct leases.
	l0, err := c.Lease(ctx, "w0")
	if err != nil || l0.Status != api.WorkStatusUnit || l0.Unit.Seq != 0 {
		t.Fatalf("first lease = %+v, %v", l0, err)
	}
	if !l0.Unit.Quick || l0.Unit.Seed != 1 || l0.Unit.Replicas != 1 {
		t.Fatalf("unit must carry suite fidelity: %+v", l0.Unit)
	}
	l1, err := c.Lease(ctx, "w1")
	if err != nil || l1.Status != api.WorkStatusUnit || l1.Unit.Seq != 1 {
		t.Fatalf("second lease = %+v, %v", l1, err)
	}
	if l0.Lease == l1.Lease {
		t.Fatal("lease ids must be distinct")
	}

	// Everything leased: a third worker waits.
	l2, err := c.Lease(ctx, "w2")
	if err != nil || l2.Status != api.WorkStatusWait || l2.RetrySeconds <= 0 {
		t.Fatalf("exhausted lease = %+v, %v", l2, err)
	}

	// Heartbeat keeps a live lease, rejects a bogus one.
	if hb, _ := c.Heartbeat(ctx, l0.Lease); hb.Status != api.WorkStatusOK {
		t.Fatalf("heartbeat live lease = %+v", hb)
	}
	if hb, _ := c.Heartbeat(ctx, "nope"); hb.Status != api.WorkStatusUnknown {
		t.Fatalf("heartbeat bogus lease = %+v", hb)
	}

	// Complete both; the second completion reports Done.
	r0, err := c.Complete(ctx, api.WorkCompleteRequest{
		Lease: l0.Lease, Seq: 0, Name: l0.Unit.Name, Seconds: 0.5, Report: fakeReport(t, l0.Unit.Name)})
	if err != nil || r0.Status != api.WorkStatusAccepted || r0.Done {
		t.Fatalf("first complete = %+v, %v", r0, err)
	}
	r1, err := c.Complete(ctx, api.WorkCompleteRequest{
		Lease: l1.Lease, Seq: 1, Name: l1.Unit.Name, Report: fakeReport(t, l1.Unit.Name)})
	if err != nil || r1.Status != api.WorkStatusAccepted || !r1.Done {
		t.Fatalf("last complete = %+v, %v", r1, err)
	}
	if !c.Done() {
		t.Fatal("coordinator must be done after the last completion")
	}
	if l, _ := c.Lease(ctx, "w3"); l.Status != api.WorkStatusDone {
		t.Fatalf("post-done lease = %+v", l)
	}

	// A duplicate completion is acknowledged as stale, not an error.
	rDup, err := c.Complete(ctx, api.WorkCompleteRequest{Seq: 0, Name: l0.Unit.Name, Report: fakeReport(t, l0.Unit.Name)})
	if err != nil || rDup.Status != api.WorkStatusStale {
		t.Fatalf("duplicate complete = %+v, %v", rDup, err)
	}

	// Outcomes merge in registry order with the journaled wall time.
	ocs, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ocs) != 2 || ocs[0].Err != nil || ocs[1].Err != nil {
		t.Fatalf("outcomes = %+v", ocs)
	}
	if ocs[0].Rep.Name != l0.Unit.Name || ocs[0].Elapsed != 500*time.Millisecond {
		t.Fatalf("outcome 0 = %+v", ocs[0])
	}

	// Malformed completions are config errors.
	_, err = c.Complete(ctx, api.WorkCompleteRequest{Seq: 0, Name: l0.Unit.Name})
	if !errors.Is(err, runctl.ErrConfig) {
		t.Fatalf("report-less completion error = %v", err)
	}
	_, err = c.Complete(ctx, api.WorkCompleteRequest{Seq: 0, Name: "wrong", Report: fakeReport(t, "wrong")})
	if !errors.Is(err, runctl.ErrConfig) {
		t.Fatalf("name-mismatched completion error = %v", err)
	}
}

func TestLeaseExpiryReissue(t *testing.T) {
	ctx := context.Background()
	c := newTestCoordinator(t, "")
	base := time.Now()
	clock := base
	c.now = func() time.Time { return clock }

	l0, _ := c.Lease(ctx, "doomed")
	if l0.Status != api.WorkStatusUnit {
		t.Fatalf("lease = %+v", l0)
	}

	// A heartbeat inside the TTL extends the deadline...
	clock = base.Add(10 * time.Second)
	if hb, _ := c.Heartbeat(ctx, l0.Lease); hb.Status != api.WorkStatusOK {
		t.Fatalf("in-TTL heartbeat = %+v", hb)
	}
	// ...so the unit is still held one original-TTL later.
	clock = base.Add(20 * time.Second)
	if l, _ := c.Lease(ctx, "other"); l.Status != api.WorkStatusUnit && l.Unit != nil && l.Unit.Seq == 0 {
		t.Fatalf("extended lease was reclaimed early: %+v", l)
	}

	// Heartbeats stop; past the deadline the unit is re-issued to a new
	// worker and the dead worker's lease is disowned.
	clock = base.Add(40 * time.Second)
	l1, _ := c.Lease(ctx, "successor")
	if l1.Status != api.WorkStatusUnit || l1.Unit.Seq != 0 {
		t.Fatalf("expired unit not re-issued: %+v", l1)
	}
	if l1.Lease == l0.Lease {
		t.Fatal("re-issue must mint a fresh lease id")
	}
	if hb, _ := c.Heartbeat(ctx, l0.Lease); hb.Status != api.WorkStatusUnknown {
		t.Fatalf("expired lease heartbeat = %+v", hb)
	}

	// The late completion from the doomed worker still lands (results are
	// deterministic, first completion wins).
	r, err := c.Complete(ctx, api.WorkCompleteRequest{Lease: l0.Lease, Seq: 0, Name: l0.Unit.Name, Report: fakeReport(t, l0.Unit.Name)})
	if err != nil || r.Status != api.WorkStatusAccepted {
		t.Fatalf("late completion = %+v, %v", r, err)
	}
	// The successor's duplicate is stale.
	r2, err := c.Complete(ctx, api.WorkCompleteRequest{Lease: l1.Lease, Seq: 0, Name: l1.Unit.Name, Report: fakeReport(t, l1.Unit.Name)})
	if err != nil || r2.Status != api.WorkStatusStale {
		t.Fatalf("successor completion = %+v, %v", r2, err)
	}
}

func TestCancelledCompletionRequeues(t *testing.T) {
	ctx := context.Background()
	c := newTestCoordinator(t, "")
	l0, _ := c.Lease(ctx, "drained")
	r, err := c.Complete(ctx, api.WorkCompleteRequest{
		Lease: l0.Lease, Seq: 0, Name: l0.Unit.Name,
		Error: api.ErrorBodyOf(fmt.Errorf("worker drained: %w", runctl.ErrCancelled))})
	if err != nil || r.Status != api.WorkStatusAccepted || r.Done {
		t.Fatalf("cancelled completion = %+v, %v", r, err)
	}
	// The unit went back to pending: it leases again immediately.
	l1, _ := c.Lease(ctx, "next")
	if l1.Status != api.WorkStatusUnit || l1.Unit.Seq != 0 {
		t.Fatalf("re-queued unit not leased: %+v", l1)
	}

	// A terminal (non-cancelled) failure, by contrast, finishes the unit.
	r2, err := c.Complete(ctx, api.WorkCompleteRequest{
		Lease: l1.Lease, Seq: 0, Name: l1.Unit.Name,
		Error: api.ErrorBodyOf(fmt.Errorf("sim wedged: %w", runctl.ErrDeadlock))})
	if err != nil || r2.Status != api.WorkStatusAccepted {
		t.Fatalf("terminal failure completion = %+v, %v", r2, err)
	}
	if l, _ := c.Lease(ctx, "idle"); l.Status != api.WorkStatusUnit || l.Unit.Seq != 1 {
		t.Fatalf("failed unit must not re-lease (next lease should be unit 1): %+v", l)
	}
	ocs, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ocs[0].Err, runctl.ErrDeadlock) {
		t.Fatalf("failed outcome must reconstruct its taxonomy kind, got %v", ocs[0].Err)
	}
}

func TestJournalResume(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sweep.jnl")

	// First incarnation completes unit 0, then "crashes" (Close without
	// finishing).
	c1 := newTestCoordinator(t, path)
	l0, _ := c1.Lease(ctx, "w0")
	if _, err := c1.Complete(ctx, api.WorkCompleteRequest{
		Lease: l0.Lease, Seq: 0, Name: l0.Unit.Name, Seconds: 1.5, Report: fakeReport(t, l0.Unit.Name)}); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Second incarnation resumes: unit 0 is terminal, only unit 1 leases.
	c2 := newTestCoordinator(t, path)
	if got := c2.Resumed(); got != 1 {
		t.Fatalf("Resumed() = %d, want 1", got)
	}
	l1, _ := c2.Lease(ctx, "w1")
	if l1.Status != api.WorkStatusUnit || l1.Unit.Seq != 1 {
		t.Fatalf("resumed lease = %+v, want unit 1", l1)
	}
	if r, err := c2.Complete(ctx, api.WorkCompleteRequest{
		Lease: l1.Lease, Seq: 1, Name: l1.Unit.Name, Report: fakeReport(t, l1.Unit.Name)}); err != nil || !r.Done {
		t.Fatalf("finishing completion = %+v, %v", r, err)
	}
	ocs, err := c2.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	if ocs[0].Err != nil || ocs[1].Err != nil {
		t.Fatalf("merged outcomes after resume = %+v", ocs)
	}
	if ocs[0].Elapsed != 1500*time.Millisecond {
		t.Fatalf("resumed outcome lost its wall time: %v", ocs[0].Elapsed)
	}

	// A third incarnation of the finished suite starts done.
	c3 := newTestCoordinator(t, path)
	if !c3.Done() || c3.Resumed() != 2 {
		t.Fatalf("finished journal must resume done (resumed=%d)", c3.Resumed())
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jnl")
	c1 := newTestCoordinator(t, path)
	c1.Close()

	other, err := SuiteOf([]string{"fig10", "fig12"}, false, 1, 1) // quick differs
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(CoordinatorConfig{Suite: other, JournalPath: path})
	if !errors.Is(err, runctl.ErrConfig) {
		t.Fatalf("mismatched journal error = %v, want config", err)
	}
}

// localOutcomes runs the test suite in-process, the reference for merge
// byte-identity.
func localOutcomes(t *testing.T, s Suite) []exp.Outcome {
	t.Helper()
	sel, err := s.selection()
	if err != nil {
		t.Fatal(err)
	}
	store, _ := core.NewPlacementStore("")
	opts := exp.Options{Quick: s.Quick, Seed: s.Seed, Replicas: s.Replicas, Store: store}
	return exp.RunAll(context.Background(), sel, opts, 1, nil)
}

// renderAll is expbench's stdout format, the byte-identity contract.
func renderAll(ocs []exp.Outcome) string {
	var b strings.Builder
	for _, oc := range ocs {
		if oc.Err != nil {
			continue
		}
		fmt.Fprintf(&b, "### %s — %s\n\n%s\n", oc.Exp.Name, oc.Exp.Desc, oc.Rep.Render())
	}
	return b.String()
}

func TestWorkerSweepByteIdenticalToLocalRun(t *testing.T) {
	suite := testSuite(t)
	want := renderAll(localOutcomes(t, suite))
	if want == "" {
		t.Fatal("reference run produced no output")
	}

	c := newTestCoordinator(t, "")
	store, _ := core.NewPlacementStore("")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{Client: c, ID: fmt.Sprintf("w%d", i), Store: store}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	wg.Wait()
	if !c.Done() {
		t.Fatal("suite not done after workers exited")
	}
	ocs, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(ocs); got != want {
		t.Fatalf("fabric output differs from local run:\n--- local ---\n%s\n--- fabric ---\n%s", want, got)
	}
}

func TestHTTPWorkerSweepByteIdenticalToLocalRun(t *testing.T) {
	suite := testSuite(t)
	want := renderAll(localOutcomes(t, suite))

	c := newTestCoordinator(t, "")
	srv := serve.New(serve.Config{Coordinator: c})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	store, _ := core.NewPlacementStore("")
	w := &Worker{Client: &HTTPClient{Base: ts.URL}, ID: "remote", Store: store}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ocs, err := c.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(ocs); got != want {
		t.Fatalf("HTTP fabric output differs from local run:\n--- local ---\n%s\n--- fabric ---\n%s", want, got)
	}
}

func TestWorkerDrainCompletesAsCancelled(t *testing.T) {
	c := newTestCoordinator(t, "")
	store, _ := core.NewPlacementStore("")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drained before it starts
	w := &Worker{Client: c, ID: "drained", Store: store}
	if err := w.Run(ctx); !errors.Is(err, runctl.ErrCancelled) {
		t.Fatalf("drained worker error = %v, want cancelled", err)
	}
	// Nothing was consumed: a fresh worker still finds both units pending.
	pending, leased, done, failed := c.Counts()
	if pending != 2 || leased != 0 || done != 0 || failed != 0 {
		t.Fatalf("counts after drained worker = %d/%d/%d/%d", pending, leased, done, failed)
	}
}
