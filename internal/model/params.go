// Package model implements the paper's analytical latency model (Section 2.2
// and 3): head latency L_D from hop counts, Manhattan link lengths and
// per-hop contention (Eq. 1), serialization latency L_S from the packet mix
// and the link width (Eq. 2), the bisection-bandwidth constraint that couples
// link limit C to link width b (Eq. 3, Section 4.1), and the 2D-from-1D
// average of Eq. 5.
package model

import (
	"fmt"

	"explink/internal/route"
)

// Params are the timing constants of Eq. (1), in whole cycles.
type Params struct {
	// RouterDelay is Tr: cycles a flit spends in the router pipeline per hop.
	// The paper assumes a canonical 3-stage router.
	RouterDelay int
	// LinkDelay is Tl: cycles per unit of link length. Express links are
	// segmented into unit-length repeatered wires, so a span of length d
	// costs d·Tl.
	LinkDelay int
	// Contention is Tc: the average per-hop contention delay. It is near
	// zero at the low loads of general-purpose CMPs (Section 2.2).
	Contention int
}

// DefaultParams returns the constants used throughout the evaluation:
// a 3-stage router (Tr = 3), unit link delay (Tl = 1) and zero modeled
// contention (Tc = 0).
func DefaultParams() Params {
	return Params{RouterDelay: 3, LinkDelay: 1, Contention: 0}
}

// Route converts the timing constants into per-edge routing costs.
func (p Params) Route() route.Params {
	return route.Params{PerHop: p.RouterDelay + p.Contention, PerUnit: p.LinkDelay}
}

// validate rejects negative timing constants and ones too large for rows of
// n routers to be scored exactly (route.Params.Check).
func (p Params) validate(n int) error {
	if p.RouterDelay < 0 || p.LinkDelay < 0 || p.Contention < 0 {
		return fmt.Errorf("model: timing parameters must be non-negative: %+v", p)
	}
	return p.Route().Check(n)
}
