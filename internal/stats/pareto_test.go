package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 2}, []float64{2, 3}, true},
		{[]float64{1, 3}, []float64{2, 3}, true},  // equal in one dim, better in the other
		{[]float64{2, 3}, []float64{2, 3}, false}, // equal everywhere
		{[]float64{1, 4}, []float64{2, 3}, false}, // trade-off
		{[]float64{2, 3}, []float64{1, 2}, false},
		{[]float64{1}, []float64{2}, true},
		{[]float64{1, 2}, []float64{1, 2, 3}, false}, // length mismatch
		{nil, nil, false},
		{[]float64{math.NaN(), 1}, []float64{5, 5}, false},
		{[]float64{math.Inf(-1), 1}, []float64{5, 1}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if !WeaklyDominates([]float64{2, 3}, []float64{2, 3}) {
		t.Error("equal vectors should weakly dominate")
	}
	if WeaklyDominates([]float64{2, 4}, []float64{2, 3}) {
		t.Error("worse vector weakly dominates")
	}
}

func TestParetoFront(t *testing.T) {
	points := [][]float64{
		{1, 5}, // front
		{2, 2}, // front
		{3, 3}, // dominated by {2,2}
		{5, 1}, // front
		{1, 5}, // duplicate of a front point: survives
		{6, 6}, // dominated
	}
	got := ParetoFront(points)
	want := []int{0, 1, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParetoFront = %v, want %v", got, want)
	}
	if f := ParetoFront(nil); f != nil {
		t.Fatalf("empty input front = %v", f)
	}
}

func TestCompareLex(t *testing.T) {
	if CompareLex([]float64{1, 2}, []float64{1, 3}) >= 0 {
		t.Error("lex order on second dim")
	}
	if CompareLex([]float64{2}, []float64{1, 9}) <= 0 {
		t.Error("lex order on first dim")
	}
	if CompareLex([]float64{1, 2}, []float64{1, 2}) != 0 {
		t.Error("equal vectors compare non-zero")
	}
	if CompareLex([]float64{1}, []float64{1, 0}) >= 0 {
		t.Error("prefix sorts first")
	}
}

func TestFrontierTable(t *testing.T) {
	tab := FrontierTable("trade-off", []string{"lat", "pow"},
		[]string{"a", "b", "c"},
		[][]float64{{1, 5}, {3, 3}, {2, 2}})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "front") || !strings.Contains(out, "trade-off") {
		t.Fatalf("missing header/title:\n%s", out)
	}
	// Row b (3,3) is dominated by c (2,2): no marker.
	for _, r := range tab.Rows {
		mark := r[len(r)-1]
		switch r[0] {
		case "a", "c":
			if mark != "*" {
				t.Errorf("row %s not marked on front", r[0])
			}
		case "b":
			if mark != "" {
				t.Errorf("dominated row b marked on front")
			}
		}
	}
}
