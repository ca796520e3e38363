// Package numfmt formats float64 values in the two shortest-round-trip forms
// the repository writes: encoding/json's form (JSON responses) and
// strconv's shortest 'g' form (placement-store key preimages). Both bytes
// are contracts: a response must equal encoding/json's and a key preimage
// must hash to the address every existing cache directory holds it under.
//
// Most values written on a hot path are short decimals: whole cycle
// counts, latencies of a few digits after the point, configuration values
// such as 0.8. For those, the shortest digits are the integer m of
// f = m/10^k with the smallest k, so they are printed from m as an integer
// instead of through strconv's shortest-digit search. Every other value
// falls back to strconv.
package numfmt

import (
	"math"
	"strconv"
)

// maxScale is the largest k of the fast path: f = m/10^k with k ≤ maxScale.
const maxScale = 4

var pow10 = [maxScale + 1]float64{1, 10, 100, 1000, 10000}

// Below jsonLimit, m = f·10^k stays under 1e14, far inside float64's exact
// integers, so rounding f·10^k recovers every candidate m exactly. Below
// gLimit, shortest 'g' prints the same plain decimal as 'f'; from 1e6 on
// it switches to exponent form (1e+06).
const (
	jsonLimit = 1e10
	gLimit    = 1e6
)

// AppendJSON appends finite f the way encoding/json writes a float64:
// shortest round-trip digits in 'f' form unless |f| < 1e-6 or |f| >= 1e21,
// where it switches to 'e' form with a one-digit negative exponent written
// without its leading zero (1e-07 → 1e-7). f must not be NaN or ±Inf.
func AppendJSON(b []byte, f float64) []byte {
	if b, ok := appendDecimal(b, f, jsonLimit); ok {
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendShortest appends strconv.AppendFloat(b, f, 'g', -1, 64).
func AppendShortest(b []byte, f float64) []byte {
	if b, ok := appendDecimal(b, f, gLimit); ok {
		return b
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendDecimal appends f as a plain decimal when |f| < limit and f is the
// float nearest m/10^k for an integer m and some k ≤ maxScale, and reports
// whether it did. With the smallest such k those are f's shortest
// round-trip digits: a decimal with fewer digits after the point would have
// round-tripped at a smaller k, and two decimals 10^-k apart cannot both
// round to one float below limit, whose ulp is under 2e-6. Negative zero
// passes the m/10^k test as 0, so it is left to strconv, which keeps its
// sign.
func appendDecimal(b []byte, f, limit float64) ([]byte, bool) {
	a := math.Abs(f)
	if !(a < limit) || (a == 0 && math.Signbit(f)) {
		return b, false
	}
	for k, p := range pow10 {
		m := math.Round(a * p)
		if m/p != a {
			continue
		}
		if f < 0 {
			b = append(b, '-')
		}
		var digits [20]byte
		d := strconv.AppendUint(digits[:0], uint64(m), 10)
		switch {
		case k == 0:
			return append(b, d...), true
		case len(d) <= k: // 0.0…0m
			b = append(b, "0.0000"[:2+k-len(d)]...)
			return append(b, d...), true
		default:
			b = append(b, d[:len(d)-k]...)
			b = append(b, '.')
			return append(b, d[len(d)-k:]...), true
		}
	}
	return b, false
}
