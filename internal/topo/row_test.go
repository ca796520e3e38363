package topo

import (
	"strings"
	"testing"
	"testing/quick"

	"explink/internal/stats"
)

func TestSpanBasics(t *testing.T) {
	s := Span{From: 2, To: 5}
	for k := 0; k < 8; k++ {
		want := k >= 2 && k < 5
		if s.Covers(k) != want {
			t.Fatalf("Covers(%d) = %v", k, s.Covers(k))
		}
	}
	if !s.Valid(8) || s.Valid(5) {
		t.Fatal("Valid bounds wrong")
	}
	if (Span{From: 1, To: 2}).Valid(8) {
		t.Fatal("length-1 span must be invalid")
	}
}

func TestSpanOverlaps(t *testing.T) {
	cases := []struct {
		a, b Span
		want bool
	}{
		{Span{0, 3}, Span{3, 6}, false}, // touching endpoints do not overlap
		{Span{0, 3}, Span{2, 6}, true},
		{Span{0, 6}, Span{2, 4}, true},
		{Span{0, 2}, Span{4, 6}, false},
	}
	for _, c := range cases {
		if c.a.Overlaps(c.b) != c.want || c.b.Overlaps(c.a) != c.want {
			t.Errorf("Overlaps(%v,%v) != %v", c.a, c.b, c.want)
		}
	}
}

func TestMeshRowCrossSections(t *testing.T) {
	r := MeshRow(8)
	for k, c := range r.CrossSections() {
		if c != 1 {
			t.Fatalf("mesh cut %d = %d", k, c)
		}
	}
	if r.MaxCrossSection() != 1 {
		t.Fatal("mesh max cross-section must be 1")
	}
	if err := r.Validate(1); err != nil {
		t.Fatal(err)
	}
}

func TestRowCrossSectionCounts(t *testing.T) {
	// Fig. 1 of the paper: express links on the first row of an 8x8 mesh
	// with cross-section counts 2 2 2 1 2 2 2.
	r := NewRow(8, Span{0, 3}, Span{4, 7})
	want := []int{2, 2, 2, 1, 2, 2, 2}
	got := r.CrossSections()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("cut %d = %d, want %d (all: %v)", k, got[k], want[k], got)
		}
	}
	if err := r.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(1); err == nil {
		t.Fatal("validate must fail at C=1")
	}
}

func TestNewRowPanicsOnBadSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRow(4, Span{0, 5})
}

func TestRowEqualCanonical(t *testing.T) {
	a := NewRow(8, Span{0, 3}, Span{4, 7})
	b := NewRow(8, Span{4, 7}, Span{0, 3})
	if !a.Equal(b) {
		t.Fatal("order must not matter")
	}
	c := NewRow(8, Span{0, 3})
	if a.Equal(c) {
		t.Fatal("different spans must not be equal")
	}
}

func TestRowAddDoesNotMutate(t *testing.T) {
	a := NewRow(8, Span{0, 3})
	b := a.Add(Span{4, 7})
	if len(a.Express) != 1 || len(b.Express) != 2 {
		t.Fatalf("Add mutated receiver: %v %v", a, b)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	r := NewRow(8, Span{0, 3}, Span{3, 7})
	got := r.Neighbors(3)
	want := []int{0, 2, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("neighbors(3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors(3) = %v, want %v", got, want)
		}
	}
	if r.Degree(0) != 2 { // local to 1 plus express to 3
		t.Fatalf("degree(0) = %d", r.Degree(0))
	}
	// Degree must count distinct neighbors even with duplicate spans.
	d := NewRow(8, Span{0, 3}, Span{0, 3})
	if d.Degree(0) != 2 {
		t.Fatalf("duplicate span degree = %d", d.Degree(0))
	}
}

func TestRowStringAndDiagram(t *testing.T) {
	r := NewRow(8, Span{1, 3})
	if !strings.Contains(r.String(), "1-3") {
		t.Fatalf("String = %q", r.String())
	}
	d := r.Diagram()
	if !strings.Contains(d, "\\") || !strings.Contains(d, "/") {
		t.Fatalf("Diagram = %q", d)
	}
}

// randomRow builds a random feasible row for property tests.
func randomRow(rng *stats.RNG, n, c int) Row {
	r := Row{N: n}
	attempts := rng.Intn(3 * n)
	for i := 0; i < attempts; i++ {
		from := rng.Intn(n - 2)
		maxLen := n - 1 - from
		if maxLen < 2 {
			continue
		}
		to := from + 2 + rng.Intn(maxLen-1)
		cand := r.Add(Span{From: from, To: to})
		if cand.Validate(c) == nil {
			r = cand
		}
	}
	return r
}

func TestRandomRowsAreValid(t *testing.T) {
	rng := stats.NewRNG(1)
	for i := 0; i < 200; i++ {
		n := 4 + rng.Intn(13)
		c := 1 + rng.Intn(6)
		r := randomRow(rng, n, c)
		if err := r.Validate(c); err != nil {
			t.Fatalf("random row invalid: %v", err)
		}
	}
}

func TestCrossSectionConsistency(t *testing.T) {
	// CrossSection(k) must agree with CrossSections()[k] for random rows.
	rng := stats.NewRNG(2)
	if err := quick.Check(func(seed uint64) bool {
		local := stats.NewRNG(seed)
		r := randomRow(local, 8, 4)
		cs := r.CrossSections()
		for k := 0; k < r.N-1; k++ {
			if r.CrossSection(k) != cs[k] {
				return false
			}
		}
		_ = rng
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
