package numfmt

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// checkBothForms holds both appenders to their oracles on f: AppendShortest
// to strconv's shortest 'g', AppendJSON to json.Marshal (for a finite f).
// Each appends after a prefix, which must survive untouched.
func checkBothForms(t *testing.T, f float64) {
	t.Helper()
	const prefix = "x="
	if got, want := string(AppendShortest([]byte(prefix), f)), prefix+strconv.FormatFloat(f, 'g', -1, 64); got != want {
		t.Fatalf("AppendShortest(%b): got %q, want %q", f, got, want)
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return
	}
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(AppendJSON([]byte(prefix), f)); got != prefix+string(want) {
		t.Fatalf("AppendJSON(%b): got %q, want %q", f, got, prefix+string(want))
	}
}

// FuzzFormat compares both forms with their oracles on raw float bits, so
// signed zeros, subnormals, the fast path's edges and the format switches
// (1e-6 and 1e21 for JSON, 1e-4 and 1e6 for 'g') are all reachable. The
// same bits also pick a short decimal m/10^k and its upper neighbour, so
// every input exercises the fast path too.
func FuzzFormat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.8, 12.5, 2.25, 0.0001, 0.00015, 0.001, -0.001,
		1e-3, math.Nextafter(1e-3, 0), 1e6, math.Nextafter(1e6, 0), 999999.9999, 1e10,
		math.Nextafter(1e10, 0), 9999999999.9999, 1<<53 - 1, 1 << 53,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21, math.Nextafter(1e21, 0), 1e20,
		0.30000000000000004 /* 0.1+0.2 */, 1.0 / 3, math.Pi, 0.12345, 123456.78901, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkBothForms(t, math.Float64frombits(bits))
		v := float64(bits%1e14) / pow10[bits>>60%(maxScale+1)]
		checkBothForms(t, v)
		checkBothForms(t, math.Nextafter(v, math.Inf(1)))
	})
}

// TestShortDecimals walks every fast-path scale: each m/10^k for a spread
// of m, its neighbouring floats, and its negation, in both forms.
func TestShortDecimals(t *testing.T) {
	ms := []int64{0, 1, 2, 5, 7, 9, 10, 11, 99, 100, 101, 125, 999, 1000, 1001, 12345, 99999,
		100000, 999999, 1000000, 123456789, 999999999, 1e10, 1e14 - 1}
	for _, m := range ms {
		for _, p := range pow10 {
			v := float64(m) / p
			for _, x := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
				checkBothForms(t, x)
				checkBothForms(t, -x)
			}
		}
	}
}
