package sim

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceEntry is one injected packet of a recorded workload.
type TraceEntry struct {
	Cycle int64 `json:"cycle"`
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Bits  int   `json:"bits"`
}

// Trace is a recorded packet workload: the trace-driven analogue of a
// synthetic pattern, playing the role of gem5's application traces. Replaying
// a trace through New/Run is fully deterministic: the datapath contains no
// randomness once destinations, sizes and injection times are fixed.
type Trace struct {
	W int `json:"w"`
	H int `json:"h"`
	// K is the concentration the trace was recorded at (0 means 1).
	K       int          `json:"k,omitempty"`
	Entries []TraceEntry `json:"entries"`
	// Name optionally labels the workload (e.g. the file it was loaded
	// from); replay results report Pattern as "trace(Name)" when set.
	Name string `json:"name,omitempty"`
}

func (tr *Trace) concentration() int {
	if tr.K < 1 {
		return 1
	}
	return tr.K
}

// Validate checks the trace dimensions and that entries are sorted by cycle
// with in-range nodes and positive sizes. Every rejection wraps ErrConfig.
func (tr *Trace) Validate() error {
	if tr.W < 1 || tr.H < 1 || tr.K < 0 {
		return fmt.Errorf("sim: trace dimensions %dx%dx%d: %w", tr.W, tr.H, tr.K, ErrConfig)
	}
	nodes := tr.W * tr.H * tr.concentration()
	var prev int64 = -1
	for i, e := range tr.Entries {
		if e.Cycle < prev {
			return fmt.Errorf("sim: trace entry %d out of order (cycle %d after %d): %w", i, e.Cycle, prev, ErrConfig)
		}
		prev = e.Cycle
		if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes {
			return fmt.Errorf("sim: trace entry %d has out-of-range nodes (%d -> %d): %w", i, e.Src, e.Dst, ErrConfig)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("sim: trace entry %d is self-addressed: %w", i, ErrConfig)
		}
		if e.Bits <= 0 {
			// A non-positive size would make flitsForBits produce zero or
			// negative flit counts at replay time.
			return fmt.Errorf("sim: trace entry %d has size %d bits: %w", i, e.Bits, ErrConfig)
		}
	}
	return nil
}

// Save writes the trace as JSON.
func (tr *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// LoadTrace reads a JSON trace and validates it.
func LoadTrace(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("sim: decoding trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}

// replayTrace injects every entry scheduled for the current cycle. It is
// called once per cycle instead of the random generators when Config.Trace
// is set.
func (s *Simulator) replayTrace() {
	tr := s.cfg.Trace
	for s.traceIdx < len(tr.Entries) && tr.Entries[s.traceIdx].Cycle == s.now {
		e := tr.Entries[s.traceIdx]
		s.traceIdx++
		s.newPacket(s.nis[e.Src], e.Dst, flitsForBits(e.Bits, s.cfg.WidthBits))
	}
}

func flitsForBits(bits, width int) int {
	return (bits + width - 1) / width
}
