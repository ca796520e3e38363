package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"explink/internal/topo"
	"explink/internal/traffic"
)

func TestTraceRecordReplayIdentical(t *testing.T) {
	// Record a random run, then replay the trace: the datapath is
	// deterministic once the workload is fixed, so every statistic must
	// match exactly.
	cfg := quickCfg(topo.HFB(8), 4, traffic.UniformRandom(8), 0.02)
	cfg.RecordTrace = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr := s.RecordedTrace()
	if tr == nil || len(tr.Entries) == 0 {
		t.Fatal("nothing recorded")
	}
	if int64(len(tr.Entries)) != orig.Counts.PacketsInjected {
		t.Fatalf("recorded %d entries, injected %d", len(tr.Entries), orig.Counts.PacketsInjected)
	}

	replayCfg := quickCfg(topo.HFB(8), 4, nil, 0)
	replayCfg.Trace = tr
	s2, err := New(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if replay.AvgPacketLatency != orig.AvgPacketLatency ||
		replay.Counts != orig.Counts ||
		replay.MeasuredPackets != orig.MeasuredPackets {
		t.Fatalf("replay diverged:\norig   %+v\nreplay %+v", orig, replay)
	}
}

func TestTraceSaveLoad(t *testing.T) {
	tr := &Trace{W: 4, H: 4, Entries: []TraceEntry{
		{Cycle: 1, Src: 0, Dst: 5, Bits: 128},
		{Cycle: 3, Src: 2, Dst: 9, Bits: 512},
	}}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 4 || got.H != 4 || len(got.Entries) != 2 || got.Entries[1] != tr.Entries[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestTraceValidate(t *testing.T) {
	bad := []Trace{
		{W: 4, H: 4, Entries: []TraceEntry{{Cycle: 5, Src: 0, Dst: 1, Bits: 128}, {Cycle: 1, Src: 0, Dst: 1, Bits: 128}}}, // unordered
		{W: 4, H: 4, Entries: []TraceEntry{{Cycle: 1, Src: 0, Dst: 16, Bits: 128}}},                                       // dst out of range
		{W: 4, H: 4, Entries: []TraceEntry{{Cycle: 1, Src: 3, Dst: 3, Bits: 128}}},                                        // self
		{W: 4, H: 4, Entries: []TraceEntry{{Cycle: 1, Src: 0, Dst: 1, Bits: 0}}},                                          // zero size
	}
	for i, tr := range bad {
		if tr.Validate() == nil {
			t.Fatalf("bad trace %d accepted", i)
		}
	}
}

func TestTraceSort(t *testing.T) {
	// Replay needs entries in cycle order: Validate rejects an unsorted trace
	// and accepts the same entries once ordered.
	tr := &Trace{W: 4, H: 4, Entries: []TraceEntry{
		{Cycle: 3, Src: 0, Dst: 1, Bits: 128},
		{Cycle: 1, Src: 2, Dst: 3, Bits: 128},
	}}
	if err := tr.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("unsorted trace: err = %v, want ErrConfig", err)
	}
	tr.Entries[0], tr.Entries[1] = tr.Entries[1], tr.Entries[0]
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceReplayDeterministicLatency(t *testing.T) {
	// A hand-built two-packet trace on a 4x4 mesh: zero-load latencies are
	// exactly predictable (head 0->15: 24 cycles + 3 + flits + 1).
	tr := &Trace{W: 4, H: 4, Entries: []TraceEntry{
		{Cycle: 600, Src: 0, Dst: 15, Bits: 128},
		{Cycle: 900, Src: 15, Dst: 0, Bits: 512},
	}}
	cfg := quickCfg(topo.Mesh(4), 1, nil, 0)
	cfg.Trace = tr
	res := mustRun(t, cfg)
	if res.MeasuredPackets != 2 {
		t.Fatalf("measured %d packets", res.MeasuredPackets)
	}
	// Short packet: 24+3+1+1 = 29; long: 24+3+2+1 = 30.
	if res.MaxLatency != 30 || res.AvgPacketLatency != 29.5 {
		t.Fatalf("latencies unexpected: max=%d avg=%g", res.MaxLatency, res.AvgPacketLatency)
	}
}

func TestTraceSizeMismatchRejected(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, nil, 0)
	cfg.Trace = &Trace{W: 8, H: 8}
	if _, err := New(cfg); err == nil {
		t.Fatal("trace/topology size mismatch accepted")
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	if _, err := LoadTrace(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadTrace(bytes.NewBufferString(`{"w":4,"h":4,"entries":[{"cycle":1,"src":0,"dst":99,"bits":128}]}`)); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestRecordedTraceNilWithoutFlag(t *testing.T) {
	cfg := quickCfg(topo.Mesh(4), 1, traffic.UniformRandom(4), 0.01)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.RecordedTrace() != nil {
		t.Fatal("trace returned without RecordTrace")
	}
}
