// Package topo defines the topology representations of the express-link
// placement problem: one-dimensional row placements (Section 4.2 of the
// paper), the connection-matrix search space (Section 4.4.2), the fixed
// comparison topologies (mesh, flattened butterfly, hybrid flattened
// butterfly), and the 2D expansion used by the simulator.
//
// Conventions: routers on a row are numbered 0..N-1 left to right.
// Cross-section k (a "cut") lies between routers k and k+1, for
// k in [0, N-2]. Every row implicitly contains the N-1 local links; a
// placement only lists express links (spans of length >= 2).
package topo

import "fmt"

// Span is one bidirectional express link between two non-adjacent routers on
// the same row (or column). From < To and To-From >= 2 for a valid express
// span; length-1 spans would duplicate local links.
type Span struct {
	From, To int
}

// Covers reports whether the span crosses cut k (the cross-section between
// routers k and k+1).
func (s Span) Covers(k int) bool { return s.From <= k && k < s.To }

// Overlaps reports whether two spans share at least one cross-section.
// Spans that merely touch at an endpoint do not overlap.
func (s Span) Overlaps(o Span) bool { return s.From < o.To && o.From < s.To }

// Valid reports whether the span is a well-formed express link on a row of
// n routers.
func (s Span) Valid(n int) bool {
	return s.From >= 0 && s.To < n && s.To-s.From >= 2
}

func (s Span) String() string { return fmt.Sprintf("%d-%d", s.From, s.To) }

// CompareSpans orders spans by (From, To), the canonical order used
// throughout the package.
func CompareSpans(a, b Span) int {
	switch {
	case a.From != b.From:
		return a.From - b.From
	default:
		return a.To - b.To
	}
}
