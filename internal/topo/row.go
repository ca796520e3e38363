package topo

import (
	"fmt"
	"slices"
	"strings"
)

// Row is a one-dimensional express-link placement over N routers: the N-1
// local links (implicit) plus a multiset of express spans. It is the solution
// representation of problem P̃(n, C) from the paper.
type Row struct {
	N       int
	Express []Span
}

// MeshRow returns the plain row with no express links (link limit C = 1).
func MeshRow(n int) Row {
	return Row{N: n}
}

// NewRow returns a row over n routers with the given express spans. It panics
// if any span is malformed; use Validate for user-input checking.
func NewRow(n int, spans ...Span) Row {
	for _, s := range spans {
		if !s.Valid(n) {
			panic(fmt.Sprintf("topo: invalid span %v on row of %d", s, n))
		}
	}
	r := Row{N: n, Express: slices.Clone(spans)}
	r.sort()
	return r
}

func (r *Row) sort() {
	slices.SortFunc(r.Express, CompareSpans)
}

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	return Row{N: r.N, Express: slices.Clone(r.Express)}
}

// Add returns a copy of the row with one more express span.
func (r Row) Add(s Span) Row {
	c := r.Clone()
	c.Express = append(c.Express, s)
	c.sort()
	return c
}

// CrossSection returns the total link count (local + express) crossing cut k.
func (r Row) CrossSection(k int) int {
	if k < 0 || k >= r.N-1 {
		return 0
	}
	count := 1 // the local link
	for _, s := range r.Express {
		if s.Covers(k) {
			count++
		}
	}
	return count
}

// CrossSections returns the link count at every cut, length N-1.
func (r Row) CrossSections() []int {
	cs := make([]int, maxInt(r.N-1, 0))
	for i := range cs {
		cs[i] = 1
	}
	for _, s := range r.Express {
		for k := s.From; k < s.To; k++ {
			cs[k]++
		}
	}
	return cs
}

// MaxCrossSection returns the maximum link count over all cuts (at least 1
// for N >= 2, 0 for degenerate rows).
func (r Row) MaxCrossSection() int {
	m := 0
	for _, c := range r.CrossSections() {
		if c > m {
			m = c
		}
	}
	return m
}

// Validate checks that the row is a feasible placement under link limit c:
// every span well-formed and every cross-section within the limit
// (constraint (3) of the paper).
func (r Row) Validate(c int) error {
	if r.N < 1 {
		return fmt.Errorf("topo: row must have at least 1 router, got %d", r.N)
	}
	for _, s := range r.Express {
		if !s.Valid(r.N) {
			return fmt.Errorf("topo: invalid span %v on row of %d routers", s, r.N)
		}
	}
	for k, cnt := range r.CrossSections() {
		if cnt > c {
			return fmt.Errorf("topo: cross-section %d has %d links, limit %d", k, cnt, c)
		}
	}
	return nil
}

// Remove returns a copy of the row without the i-th express span (in
// canonical order). The local links always remain, so the row stays
// connected; removing a span can only relax the cross-section constraint.
// It panics if i is out of range.
func (r Row) Remove(i int) Row {
	c := r.Canonical()
	if i < 0 || i >= len(c.Express) {
		panic(fmt.Sprintf("topo: Remove(%d) on row with %d spans", i, len(c.Express)))
	}
	c.Express = append(c.Express[:i], c.Express[i+1:]...)
	return c
}

// Dedupe returns the row with duplicate spans removed. Duplicates can appear
// when decoding connection matrices (two layers carrying the same segment);
// they consume cross-section capacity and crossbar ports without shortening
// any path, so the cleaned row is never worse.
func (r Row) Dedupe() Row {
	c := r.Canonical()
	out := Row{N: c.N}
	for i, s := range c.Express {
		if i > 0 && s == c.Express[i-1] {
			continue
		}
		out.Express = append(out.Express, s)
	}
	return out
}

// Canonical returns the row with spans sorted; two rows describe the same
// placement iff their Canonical forms are Equal.
func (r Row) Canonical() Row {
	c := r.Clone()
	c.sort()
	return c
}

// Equal reports whether two rows describe the same placement (same router
// count and same multiset of spans).
func (r Row) Equal(o Row) bool {
	if r.N != o.N || len(r.Express) != len(o.Express) {
		return false
	}
	a, b := r.Canonical(), o.Canonical()
	for i := range a.Express {
		if a.Express[i] != b.Express[i] {
			return false
		}
	}
	return true
}

// Neighbors returns, for router i, every router directly linked to it
// (by a local or express link), in ascending order without duplicates.
func (r Row) Neighbors(i int) []int {
	set := map[int]bool{}
	if i > 0 {
		set[i-1] = true
	}
	if i < r.N-1 {
		set[i+1] = true
	}
	for _, s := range r.Express {
		if s.From == i {
			set[s.To] = true
		}
		if s.To == i {
			set[s.From] = true
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Degree returns the number of distinct row neighbors of router i, i.e. the
// number of in/out channel pairs the router needs on this dimension.
func (r Row) Degree(i int) int { return len(r.Neighbors(i)) }

// String renders the row as "n=8 express=[0-3 2-5 ...]".
func (r Row) String() string {
	parts := make([]string, len(r.Express))
	for i, s := range r.Canonical().Express {
		parts[i] = s.String()
	}
	return fmt.Sprintf("n=%d express=[%s]", r.N, strings.Join(parts, " "))
}

// Diagram renders an ASCII picture of the placement: one line of routers and
// one line per express link.
func (r Row) Diagram() string {
	var b strings.Builder
	for i := 0; i < r.N; i++ {
		if i > 0 {
			b.WriteString("--")
		}
		fmt.Fprintf(&b, "%d", i%10)
	}
	b.WriteString("\n")
	for _, s := range r.Canonical().Express {
		line := make([]byte, 3*r.N-2)
		for i := range line {
			line[i] = ' '
		}
		start, end := 3*s.From, 3*s.To
		line[start] = '\\'
		for i := start + 1; i < end; i++ {
			line[i] = '_'
		}
		line[end] = '/'
		b.Write(line)
		b.WriteString("\n")
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
