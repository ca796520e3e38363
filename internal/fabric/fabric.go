// Package fabric is the distributed, resumable sweep layer: it scales an
// experiment-suite run (exp.RunAll) from one process to a coordinator/worker
// fleet without changing what the suite computes.
//
// The coordinator decomposes a suite into work units (exp.DecomposeSuite),
// leases them to workers over the service layer's /v1/work endpoints with
// heartbeat-extended deadlines, journals every completed unit to a
// checkpoint file, and merges results back into the registry-order outcome
// list a local run would have produced — byte-identical output by
// construction, because units are whole experiments and experiment reports
// are deterministic.
//
// Workers are thin loops over the existing internal/api builders: lease a
// unit, run it through the shared experiment registry with a local
// placement store (pointed at a shared -cache-dir, the content-addressed
// SHA-256 keys make cross-worker deduplication free), stream the outcome
// back, repeat. Fault tolerance is lease-based: a worker that dies mid-unit
// stops heartbeating, its lease expires, and the unit is re-issued — the
// failure costs one unit, not the campaign. A killed coordinator resumes
// from its journal with only the unfinished units re-leased; completed
// solves sitting in the shared cache-dir make even re-leased work cheap.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"explink/internal/api"
	"explink/internal/exp"
)

// fabricVersion salts the suite fingerprint: any change to unit
// decomposition or journal semantics that could make an old checkpoint mean
// something different must bump it, so stale journals are rejected instead
// of silently merged.
const fabricVersion = "explink/fabric/v1"

// Suite describes one sweep campaign: which experiments, at what fidelity.
// It mirrors api.ExpRequest (the single-process entry surface) so the two
// stay interchangeable.
type Suite struct {
	// Experiments are the resolved registry names in registry order.
	Experiments []string
	Quick       bool
	Seed        uint64
	Replicas    int
}

// SuiteOf resolves an experiment selection into a Suite, using the same
// selector as the expbench -exp flag and the /v1/exp endpoint, so the fabric
// accepts exactly the names a local run would.
func SuiteOf(names []string, quick bool, seed uint64, replicas int) (Suite, error) {
	sel, err := api.SelectExperiments(names)
	if err != nil {
		return Suite{}, err
	}
	s := Suite{Quick: quick, Seed: seed, Replicas: replicas}
	for _, e := range sel {
		s.Experiments = append(s.Experiments, e.Name)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	return s, nil
}

// selection resolves the suite back to registry entries.
func (s Suite) selection() ([]exp.Experiment, error) {
	return api.SelectExperiments(s.Experiments)
}

// Fingerprint is the canonical identity of a suite: sha256 over a preimage
// covering everything that determines the unit list and its results. Two
// coordinators with the same fingerprint interchangeably own the same
// campaign; a journal records it so a checkpoint can never be replayed into
// a different suite.
func (s Suite) Fingerprint() string {
	var b strings.Builder
	b.WriteString(fabricVersion)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "quick=%t\nseed=%d\nreplicas=%d\nexperiments=%s\n",
		s.Quick, s.Seed, s.Replicas, strings.Join(s.Experiments, ","))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// unitOf builds the wire form of one decomposed unit.
func (s Suite) unitOf(u exp.Unit) *api.WorkUnit {
	return &api.WorkUnit{Seq: u.Seq, Name: u.Exp.Name, Quick: s.Quick, Seed: s.Seed, Replicas: s.Replicas}
}
