package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"testing"
	"time"

	"explink/internal/topo"
	"explink/internal/traffic"
)

// TestRunDeadlinePartialResult checks the context contract on Run: a run cut
// short by a deadline returns the partial measurements it accumulated along
// with an error matching both ErrCancelled and the context's cause.
func TestRunDeadlinePartialResult(t *testing.T) {
	cfg := NewConfig(topo.Mesh(8), 1, traffic.UniformRandom(8), 0.05)
	cfg.Warmup = 100
	cfg.Measure = 1 << 30 // would run for days without the deadline
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline cause preserved", err)
	}
	if res.Cycles == 0 {
		t.Fatal("no partial result: zero cycles simulated before the deadline")
	}
	if res.Truncated != TruncatedCancelled {
		t.Fatalf("Truncated = %q, want %q", res.Truncated, TruncatedCancelled)
	}
	if res.Drained {
		t.Fatal("a cancelled run must not claim to have drained")
	}
}

// TestRunManyAggMidBatchCancel cancels a single-worker batch while its first
// (deliberately endless) run is in flight and checks the partial-results
// contract: the in-flight run returns its partial Result with a cancellation
// error, and every run never dispatched fails with its own indexed error, so
// the joined error accounts for the whole batch.
func TestRunManyAggMidBatchCancel(t *testing.T) {
	mk := func(measure int) Config {
		cfg := NewConfig(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
		cfg.Warmup, cfg.Measure, cfg.Drain = 100, measure, 1000
		return cfg
	}
	cfgs := []Config{mk(1 << 30), mk(500), mk(500), mk(500)}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	results, _, err := RunManyAgg(ctx, cfgs, 1)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("err %T is not a joined error", err)
	}
	if n := len(joined.Unwrap()); n != len(cfgs) {
		t.Fatalf("joined error has %d members, want %d (one per failed run)", n, len(cfgs))
	}
	if len(results) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(results), len(cfgs))
	}
	// The in-flight run kept its partial measurements; the undispatched runs
	// stayed zero.
	if results[0].Cycles == 0 || results[0].Truncated != TruncatedCancelled {
		t.Fatalf("in-flight run lost its partial result: %+v", results[0])
	}
	for i := 1; i < len(results); i++ {
		if results[i].Cycles != 0 {
			t.Fatalf("run %d should never have started, got %d cycles", i, results[i].Cycles)
		}
	}
}

// TestBatchMidRunCancel cancels a seed sweep running on the batched engine
// (all replicas start immediately, unlike the pool's dispatch queue) and
// checks the same partial-results contract: one indexed ErrCancelled error
// per replica, and every replica keeps the partial Result measured so far.
func TestBatchMidRunCancel(t *testing.T) {
	cfg := NewConfig(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 1<<30, 1000 // endless measurement
	const reps = 4
	b, err := NewBatch(cfg, ReplicaSeeds(cfg.Seed, reps))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	results, _, err := b.Run(ctx, 2)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("err %T is not a joined error", err)
	}
	if n := len(joined.Unwrap()); n != reps {
		t.Fatalf("joined error has %d members, want %d (every replica was in flight)", n, reps)
	}
	if len(results) != reps {
		t.Fatalf("got %d results, want %d", len(results), reps)
	}
	for i, r := range results {
		if r.Truncated != TruncatedCancelled {
			t.Fatalf("replica %d Truncated = %q, want %q", i, r.Truncated, TruncatedCancelled)
		}
		if r.Cycles == 0 {
			t.Fatalf("replica %d lost its partial result: %+v", i, r)
		}
		if r.Drained {
			t.Fatalf("replica %d claims to have drained after cancellation", i)
		}
	}
}

// TestFindSaturationReplicas runs the saturation search with replicated
// probes and checks it still finds a knee on the batched path.
func TestFindSaturationReplicas(t *testing.T) {
	base := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0)
	base.Warmup, base.Measure, base.Drain = 300, 1500, 5000
	opts := DefaultSaturationOpts()
	opts.Refine = 2
	opts.Replicas = 3
	sr, err := FindSaturation(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Saturation <= 0 || sr.SatRate <= 0 {
		t.Fatalf("no saturation point found: %+v", sr)
	}
	if sr.SimCycles == 0 {
		t.Fatal("replicated sweep reported no simulated cycles")
	}
	for i := 1; i < len(sr.Points); i++ {
		if sr.Points[i-1].Rate > sr.Points[i].Rate {
			t.Fatalf("points out of order at %d: %+v", i, sr.Points)
		}
	}
}

// TestFindSaturationPointsSorted checks that the sweep's data points come
// back sorted by offered rate even though refinement probes rates out of
// order, and that the reported saturation point is itself among the points.
func TestFindSaturationPointsSorted(t *testing.T) {
	base := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0)
	base.Warmup, base.Measure, base.Drain = 300, 1500, 5000
	opts := DefaultSaturationOpts()
	opts.Start = 0.02
	opts.Factor = 2
	opts.Refine = 3 // bisection visits rates between earlier coarse probes
	res, err := FindSaturation(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.Points, func(i, j int) bool {
		return res.Points[i].Rate < res.Points[j].Rate
	}) {
		rates := make([]float64, len(res.Points))
		for i, p := range res.Points {
			rates[i] = p.Rate
		}
		t.Fatalf("points not sorted by rate: %v", rates)
	}
	found := false
	for _, p := range res.Points {
		if p.Rate == res.SatRate {
			found = true
			if p.Result.ThroughputPackets != res.Saturation {
				t.Fatalf("saturation %.5f disagrees with its own point %.5f",
					res.Saturation, p.Result.ThroughputPackets)
			}
			if !p.Result.Drained {
				t.Fatal("the reported stable point did not drain")
			}
		}
	}
	if !found {
		t.Fatalf("SatRate %.4f not among the %d probed points", res.SatRate, len(res.Points))
	}
}

// stallNetwork advances a simulator until traffic is in flight, then revokes
// every credit in the system: no router-to-router or NI injection channel can
// ever move a flit again, which is indistinguishable from a routing deadlock.
func stallNetwork(t *testing.T, s *Simulator) {
	t.Helper()
	for i := 0; i < 500 && s.inFlightFlits == 0; i++ {
		s.step()
		s.now++
	}
	if s.inFlightFlits == 0 {
		t.Fatal("no traffic in flight after 500 warmup cycles")
	}
	for _, r := range s.routers {
		for oi := range r.out {
			op := &r.out[oi]
			if op.ch == nil { // the ejection sink has no credits to revoke
				continue
			}
			for v := range op.credits {
				op.credits[v] = 0
			}
		}
	}
	for _, ni := range s.nis {
		for v := range ni.credits {
			ni.credits[v] = 0
		}
	}
}

// TestDeadlockDiagnostics starves a healthy network of credits and checks
// that Run reports a typed *DeadlockError whose dump names the blocked
// routers, ports and VCs and the zero credit each is waiting on.
func TestDeadlockDiagnostics(t *testing.T) {
	cfg := NewConfig(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.10)
	cfg.Warmup, cfg.Measure, cfg.Drain = 300, 2000, 20000
	cfg.ProgressTimeout = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stallNetwork(t, s)
	res, err := s.Run(context.Background())
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err %T does not unwrap to *DeadlockError", err)
	}
	if de.Stall <= int64(cfg.ProgressTimeout) {
		t.Fatalf("stall %d not past the %d-cycle timeout", de.Stall, cfg.ProgressTimeout)
	}
	if !strings.Contains(de.Report, "blocked input VCs") {
		t.Fatalf("report missing the summary header:\n%s", de.Report)
	}
	if !strings.Contains(de.Report, "credits=0") {
		t.Fatalf("report does not name the exhausted credits:\n%s", de.Report)
	}
	if !strings.Contains(de.Report, "router ") {
		t.Fatalf("report does not name any blocked router:\n%s", de.Report)
	}
	if !res.DeadlockSuspected || res.Truncated != TruncatedDeadlock {
		t.Fatalf("partial result not flagged: suspected=%v truncated=%q",
			res.DeadlockSuspected, res.Truncated)
	}
}

// auditSim builds an audited 4x4 simulator, advances it far enough for
// traffic to flow through every invariant sweep, and asserts the healthy
// engine passes the audit before the caller injects a fault.
func auditSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := NewConfig(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	cfg.Warmup, cfg.Measure, cfg.Drain = 300, 2000, 10000
	cfg.Audit = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s.step()
		if err := s.audit.check(s.now); err != nil {
			t.Fatalf("healthy engine failed audit at cycle %d: %v", s.now, err)
		}
		s.now++
	}
	if s.inFlightFlits == 0 {
		t.Fatal("no traffic in flight: the conservation sweeps saw an idle network")
	}
	return s
}

// mutateCredit seeds a one-off credit fault (an extra free credit on the
// first non-eject output port of router 5) and returns a description of the
// mutated channel.
func mutateCredit(t *testing.T, s *Simulator) {
	t.Helper()
	r := s.routers[5]
	for oi := range r.out {
		if r.out[oi].ch == nil {
			continue
		}
		r.out[oi].credits[0]++
		return
	}
	t.Fatal("router 5 has no network output port")
}

// TestAuditDetectsCreditFault seeds a single spurious credit into a healthy
// audited run and checks the auditor fails fast with the violated invariant
// and cycle. This is the mutation test for the credit-conservation sweep: if
// the auditor ever goes soft, this test rots first.
func TestAuditDetectsCreditFault(t *testing.T) {
	s := auditSim(t)
	mutateCredit(t, s)
	err := s.audit.check(s.now)
	if err == nil {
		t.Fatal("auditor accepted a corrupted credit count")
	}
	if !errors.Is(err, ErrAudit) {
		t.Fatalf("err = %v, want ErrAudit", err)
	}
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("err %T does not unwrap to *AuditError", err)
	}
	if ae.Invariant != "credit-conservation" {
		t.Fatalf("invariant = %q, want credit-conservation", ae.Invariant)
	}
	if ae.Cycle != s.now {
		t.Fatalf("cycle = %d, want %d", ae.Cycle, s.now)
	}
	if !strings.Contains(ae.Detail, "router 5") {
		t.Fatalf("detail does not name the faulty router: %s", ae.Detail)
	}
}

// TestAuditDetectsFlitLoss corrupts the in-flight flit counter and checks
// the flit-conservation sweep catches it.
func TestAuditDetectsFlitLoss(t *testing.T) {
	s := auditSim(t)
	s.inFlightFlits--
	err := s.audit.check(s.now)
	if !errors.Is(err, ErrAudit) {
		t.Fatalf("err = %v, want ErrAudit", err)
	}
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("err %T does not unwrap to *AuditError", err)
	}
	if ae.Invariant != "flit-conservation" {
		t.Fatalf("invariant = %q, want flit-conservation", ae.Invariant)
	}
}

// auditFailure runs one audit sweep over a deliberately corrupted engine and
// returns the *AuditError it must fail with.
func auditFailure(t *testing.T, s *Simulator) *AuditError {
	t.Helper()
	err := s.audit.check(s.now)
	if !errors.Is(err, ErrAudit) {
		t.Fatalf("err = %v, want ErrAudit", err)
	}
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("err %T does not unwrap to *AuditError", err)
	}
	return ae
}

// TestAuditDetectsDueWheelFault clears one scheduled arrival from the due
// wheel, which would strand its flit on the channel forever, and checks the
// active-set sweep names the channel.
func TestAuditDetectsDueWheelFault(t *testing.T) {
	s := auditSim(t)
	for i, w := range s.dueWheel {
		if w == 0 {
			continue
		}
		s.dueWheel[i] = w & (w - 1)
		ae := auditFailure(t, s)
		if ae.Invariant != "active-set" || !strings.Contains(ae.Detail, "due wheel") {
			t.Fatalf("got %v, want an active-set violation naming the due wheel", ae)
		}
		return
	}
	t.Fatal("no flit on any channel: the due wheel is empty")
}

// TestAuditDetectsArrivalTimeFault moves one set due bit to another slot of
// the due wheel, so its channel's flit leaves the wire a cycle early or
// late. The flits on each wire still equal the bits set for it, so only the
// arrival-time sweep, which knows each flit's due cycle, can tell.
func TestAuditDetectsArrivalTimeFault(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shift int64 // from the slot due at s.now+shift to the slot due at s.now+1-shift
		want  string
	}{
		{"early", 1, "arrived early"},
		{"late", 0, "is late"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := auditSim(t)
			ch := -1
			for tries := 0; ch < 0; tries++ {
				from := int((s.now+tc.shift)&s.wheelMask) * s.chWords
				to := int((s.now+1-tc.shift)&s.wheelMask) * s.chWords
				for w := 0; w < s.chWords && ch < 0; w++ {
					if movable := s.dueWheel[from+w] &^ s.dueWheel[to+w]; movable != 0 {
						bit := movable & -movable
						s.dueWheel[from+w] &^= bit
						s.dueWheel[to+w] |= bit
						ch = w<<6 + bits.TrailingZeros64(bit)
					}
				}
				if ch >= 0 {
					break
				}
				if tries == 1000 {
					t.Fatal("no due bit could move in 1000 cycles")
				}
				s.step()
				if err := s.audit.check(s.now); err != nil {
					t.Fatalf("healthy engine failed audit at cycle %d: %v", s.now, err)
				}
				s.now++
			}
			if err := s.audit.check(s.now - 1); err != nil {
				t.Fatalf("moved bit failed the audit before any flit moved: %v", err)
			}
			s.step()
			ae := auditFailure(t, s)
			if ae.Invariant != "arrival-time" || !strings.Contains(ae.Detail, fmt.Sprintf("channel %d ", ch)) || !strings.Contains(ae.Detail, tc.want) {
				t.Fatalf("got %v, want an arrival-time violation: channel %d %s", ae, ch, tc.want)
			}
		})
	}
}

// TestAuditDetectsFreeMaskFault flips one bit of an output port's free-VC
// mask, which would let VC allocation hand out a held VC (or never grant a
// free one), and checks the free-mask sweep names the port.
func TestAuditDetectsFreeMaskFault(t *testing.T) {
	s := auditSim(t)
	s.routers[5].out[0].free ^= 1
	ae := auditFailure(t, s)
	if ae.Invariant != "free-vc-mask" || !strings.Contains(ae.Detail, "router 5 out[0] vc0") {
		t.Fatalf("got %v, want a free-vc-mask violation naming router 5 out[0] vc0", ae)
	}
}

// parkedSim builds an audited 4x4 mesh loaded past saturation and steps it,
// auditing every cycle, until an input VC is parked on its output (its VC
// allocation failed); it returns the simulator and that VC's router, input
// port and VC.
func parkedSim(t *testing.T) (*Simulator, *router, int, int) {
	t.Helper()
	cfg := NewConfig(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.5)
	cfg.Warmup, cfg.Measure, cfg.Drain = 300, 2000, 10000
	cfg.Audit = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		s.step()
		if err := s.audit.check(s.now); err != nil {
			t.Fatalf("healthy engine failed audit at cycle %d: %v", s.now, err)
		}
		s.now++
		for _, r := range s.routers {
			for pi := range r.in {
				if w := r.in[pi].wait; w != 0 {
					return s, r, pi, bits.TrailingZeros64(w)
				}
			}
		}
	}
	t.Fatal("no VC parked in 2000 saturated cycles")
	return nil, nil, 0, 0
}

// TestAuditDetectsParkedOnFreeVC moves a parked VC, registration included,
// to an output that has a free VC in its class: the state a lost re-arm
// leaves, where the VC would wait for a tail grant while a VC it could take
// sits free. The parking sweep must name the VC and the free VC.
func TestAuditDetectsParkedOnFreeVC(t *testing.T) {
	s, r, pi, vi := parkedSim(t)
	vc := &r.in[pi].vcs[vi]
	class := uint64(1)<<(vc.hi-vc.lo) - 1
	for oi := range r.out {
		if int32(oi) == vc.outPort || r.out[oi].free>>vc.lo&class == 0 {
			continue
		}
		from := vc.outPort
		vc.outPort = int32(oi)
		r.out[from].waitIn &^= 1 << uint(pi)
		for m := r.in[pi].wait; m != 0; m &= m - 1 {
			if r.in[pi].vcs[bits.TrailingZeros64(m)].outPort == from {
				r.out[from].waitIn |= 1 << uint(pi) // another VC still parks there
			}
		}
		r.out[oi].waitIn |= 1 << uint(pi)
		ae := auditFailure(t, s)
		want := fmt.Sprintf("router %d in[%d] vc%d: parked on out[%d], which has free VCs", r.id, pi, vi, oi)
		if ae.Invariant != "parking" || !strings.Contains(ae.Detail, want) {
			t.Fatalf("got %v, want a parking violation: %s", ae, want)
		}
		return
	}
	t.Fatalf("router %d has no other output with a free VC in [%d,%d)", r.id, vc.lo, vc.hi)
}

// TestAuditDetectsLostRearm drops a parked VC's registration on its output,
// so that output's next tail grant would free a VC without re-arming it and
// the VC would never retry VC allocation. The parking sweep must name the
// output whose waitIn mask lost the port.
func TestAuditDetectsLostRearm(t *testing.T) {
	s, r, pi, vi := parkedSim(t)
	oi := r.in[pi].vcs[vi].outPort
	r.out[oi].waitIn &^= 1 << uint(pi)
	ae := auditFailure(t, s)
	want := fmt.Sprintf("router %d out[%d]: waitIn", r.id, oi)
	if ae.Invariant != "parking" || !strings.Contains(ae.Detail, want) {
		t.Fatalf("got %v, want a parking violation: %s", ae, want)
	}
}

// TestRunStopsOnAuditViolation checks the Run-level plumbing: a violation
// mid-run truncates the simulation with TruncatedAudit and surfaces the
// typed error, rather than silently producing numbers from a corrupt engine.
func TestRunStopsOnAuditViolation(t *testing.T) {
	s := auditSim(t)
	mutateCredit(t, s)
	res, err := s.Run(context.Background())
	if !errors.Is(err, ErrAudit) {
		t.Fatalf("err = %v, want ErrAudit", err)
	}
	if res.Truncated != TruncatedAudit {
		t.Fatalf("Truncated = %q, want %q", res.Truncated, TruncatedAudit)
	}
	if res.Drained {
		t.Fatal("an aborted run must not claim to have drained")
	}
}

// TestConfigTypedErrors pins the typed validation errors: a negative flit
// width (zero means "derive from BW") and a malformed trace must both be
// matchable with ErrConfig.
func TestConfigTypedErrors(t *testing.T) {
	cfg := NewConfig(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.05)
	cfg.WidthBits = -128
	if _, err := New(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("WidthBits<0: err = %v, want ErrConfig", err)
	}
	bad := &Trace{W: 0, H: 4}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero-width trace: err = %v, want ErrConfig", err)
	}
}
