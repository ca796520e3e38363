package api

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"explink/internal/core"
)

// A repeat /v1/solve query is answered from the placement store, so its
// strict reflective decode was a large share of the request. Solve bodies
// are therefore read into a small pooled buffer and, when they are one
// object in the canonical subset parseSolveRequest accepts, filled in by
// hand. Every other body — a case-folded or duplicated key, null, a non-ASCII
// byte, an escape other than \" \\ \/ \u00XX, a body longer than the buffer,
// a read error — goes to Decode over exactly the bytes it would have read,
// so encoding/json still produces every error and handles every
// non-canonical body it accepts. FuzzSolveRequestDecode holds the hand
// parser to Decode.

// solveBufSize bounds the bytes the fast path looks at; a canonical solve
// body is well under 200 bytes.
const solveBufSize = 4 << 10

var solveBufPool = sync.Pool{New: func() any { return new([solveBufSize]byte) }}

// decodeBody decodes a solve body: the hand parser when the whole body is
// canonical and fits the buffer, Decode over the same byte stream otherwise.
func (r *SolveRequest) decodeBody(body io.Reader) error {
	buf := solveBufPool.Get().(*[solveBufSize]byte)
	defer solveBufPool.Put(buf)
	n, err := io.ReadFull(body, buf[:])
	switch err {
	case io.EOF, io.ErrUnexpectedEOF: // the body ended inside the buffer
		if parseSolveRequest(buf[:n], r) {
			return nil
		}
		return Decode(bytes.NewReader(buf[:n]), r)
	case nil: // the buffer filled: the rest of the body follows it
		return Decode(io.MultiReader(bytes.NewReader(buf[:n]), body), r)
	default:
		return Decode(io.MultiReader(bytes.NewReader(buf[:n]), errReader{err}), r)
	}
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// SolveRequest field bits, for the duplicate-key check.
const (
	solveKeyN = 1 << iota
	solveKeyC
	solveKeyAlgo
	solveKeySeed
	solveKeyMoves
	solveKeyBaseWidth
	solveKeyWorstWeight
)

// parseSolveRequest fills r from b and reports true when b is one JSON
// object of the canonical subset: exact-case SolveRequest keys without
// escapes, each at most once; JSON integers for the int fields (no
// fraction or exponent, in range, seed without a sign); a JSON number for
// worstWeight; a printable-ASCII algo string whose only escapes are \" \\
// \/ and \u00XX; JSON whitespace around tokens and nothing after the
// object. On false r is untouched and b may still be valid JSON that Decode
// accepts.
func parseSolveRequest(b []byte, r *SolveRequest) bool {
	p := solveParser{b: b}
	p.space()
	if !p.consume('{') {
		return false
	}
	var out SolveRequest
	var seen uint
	p.space()
	if !p.consume('}') {
		for {
			key, ok := p.key()
			if !ok {
				return false
			}
			p.space()
			if !p.consume(':') {
				return false
			}
			p.space()
			var bit uint
			switch string(key) {
			case "n":
				bit, ok = solveKeyN, p.int(&out.N)
			case "c":
				bit, ok = solveKeyC, p.int(&out.C)
			case "algo":
				bit, ok = solveKeyAlgo, p.str(&out.Algo)
			case "seed":
				bit, ok = solveKeySeed, p.uint(&out.Seed)
			case "moves":
				bit, ok = solveKeyMoves, p.int(&out.Moves)
			case "baseWidth":
				bit, ok = solveKeyBaseWidth, p.int(&out.BaseWidth)
			case "worstWeight":
				bit, ok = solveKeyWorstWeight, p.float(&out.WorstWeight)
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			p.space()
			if p.consume('}') {
				break
			}
			if !p.consume(',') {
				return false
			}
			p.space()
		}
	}
	p.space()
	if p.i != len(b) {
		return false
	}
	*r = out
	return true
}

// solveParser scans one canonical solve body; every method reports false
// on anything outside the canonical subset.
type solveParser struct {
	b []byte
	i int
}

func (p *solveParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *solveParser) consume(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key returns the bytes of an object key with no escapes in it.
func (p *solveParser) key() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// str scans a string value into *v. The known algorithm names are interned,
// so the common request allocates nothing here.
func (p *solveParser) str(v *string) bool {
	if !p.consume('"') {
		return false
	}
	var small [64]byte
	s := small[:0]
	for p.i < len(p.b) {
		c := p.b[p.i]
		p.i++
		switch {
		case c == '"':
			switch string(s) {
			case string(core.DCSA):
				*v = string(core.DCSA)
			case string(core.OnlySA):
				*v = string(core.OnlySA)
			case string(core.InitOnly):
				*v = string(core.InitOnly)
			default:
				*v = string(s)
			}
			return true
		case c < 0x20 || c > 0x7e:
			return false
		case c != '\\':
			s = append(s, c)
			continue
		}
		if p.i >= len(p.b) {
			return false
		}
		e := p.b[p.i]
		p.i++
		switch e {
		case '"', '\\', '/':
			s = append(s, e)
		case 'u':
			if p.i+4 > len(p.b) || p.b[p.i] != '0' || p.b[p.i+1] != '0' {
				return false
			}
			hi, ok1 := unhex(p.b[p.i+2])
			lo, ok2 := unhex(p.b[p.i+3])
			if !ok1 || !ok2 {
				return false
			}
			p.i += 4
			s = utf8.AppendRune(s, rune(hi<<4|lo))
		default:
			return false
		}
	}
	return false
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// number scans a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its bytes and whether it has neither fraction nor exponent.
func (p *solveParser) number() (lit []byte, integer, ok bool) {
	start := p.i
	p.consume('-')
	switch {
	case p.consume('0'):
	case p.digits() == 0:
		return nil, false, false
	}
	integer = true
	if p.consume('.') {
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if p.consume('e') || p.consume('E') {
		if !p.consume('+') {
			p.consume('-')
		}
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return p.b[start:p.i], integer, true
}

// digits consumes a run of decimal digits and returns its length.
func (p *solveParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// decimal converts a run of digits, failing on uint64 overflow.
func decimal(digits []byte) (uint64, bool) {
	var v uint64
	for _, c := range digits {
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// int scans a JSON integer that fits an int.
func (p *solveParser) int(v *int) bool {
	lit, integer, ok := p.number()
	if !ok || !integer {
		return false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	u, ok := decimal(lit)
	var x int64
	switch {
	case !ok:
		return false
	case !neg && u <= math.MaxInt64:
		x = int64(u)
	case neg && u <= 1<<63:
		x = -int64(u) // 1<<63 wraps to math.MinInt64, its own negation
	default:
		return false
	}
	if int64(int(x)) != x {
		return false
	}
	*v = int(x)
	return true
}

// uint scans a JSON integer without a sign that fits a uint64.
func (p *solveParser) uint(v *uint64) bool {
	if p.i < len(p.b) && p.b[p.i] == '-' {
		return false
	}
	lit, integer, ok := p.number()
	if !ok || !integer {
		return false
	}
	u, ok := decimal(lit)
	if ok {
		*v = u
	}
	return ok
}

// float scans a JSON number that parses to a finite float64, exactly as
// encoding/json parses it.
func (p *solveParser) float(v *float64) bool {
	lit, _, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*v = f
	return true
}
