package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"explink/internal/numfmt"
	"explink/internal/topo"
)

// The solve response is the daemon's repeat-query answer, so it is encoded
// by hand instead of through encoding/json's reflection and re-indent pass.
// The appenders below reproduce json.NewEncoder with SetIndent("", "  ")
// byte for byte; the encoding/json path lives on in the tests as the oracle
// they are compared against.

// appendJSON appends r as indented JSON with a trailing newline. A
// non-finite float fails the whole response with encoding/json's error.
func (r SolveResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, "{\n  \"best\": "...)
	b, err := r.Best.appendJSON(b, 1)
	if err != nil {
		return nil, err
	}
	b = append(b, ",\n  \"all\": "...)
	switch {
	case r.All == nil:
		b = append(b, "null"...)
	case len(r.All) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range r.All {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendNewline(b, 2)
			if b, err = r.All[i].appendJSON(b, 2); err != nil {
				return nil, err
			}
		}
		b = appendNewline(b, 1)
		b = append(b, ']')
	}
	return append(b, "\n}\n"...), nil
}

// jsonSize estimates the encoded length of r, so the buffer is allocated
// once.
func (r SolveResponse) jsonSize() int {
	n := 32 + r.Best.jsonSize()
	for i := range r.All {
		n += r.All[i].jsonSize()
	}
	return n
}

// jsonSize estimates the encoded length of s at nesting depth 2.
func (s *Solution) jsonSize() int { return 256 + 64*len(s.Express) }

// appendJSON appends s as an object whose braces sit at nesting depth d.
func (s *Solution) appendJSON(b []byte, d int) ([]byte, error) {
	var err error
	b = append(b, '{')
	b = appendKey(b, d+1, "c")
	b = strconv.AppendInt(b, int64(s.C), 10)
	b = append(b, ',')
	b = appendKey(b, d+1, "widthBits")
	b = strconv.AppendInt(b, int64(s.Width), 10)
	b = append(b, ',')
	b = appendKey(b, d+1, "headLatency")
	if b, err = appendFloat(b, s.Head); err != nil {
		return nil, err
	}
	b = append(b, ',')
	b = appendKey(b, d+1, "serializationLatency")
	if b, err = appendFloat(b, s.Ser); err != nil {
		return nil, err
	}
	b = append(b, ',')
	b = appendKey(b, d+1, "totalLatency")
	if b, err = appendFloat(b, s.Total); err != nil {
		return nil, err
	}
	b = append(b, ',')
	b = appendKey(b, d+1, "evaluations")
	b = strconv.AppendInt(b, s.Evals, 10)
	b = append(b, ',')
	b = appendKey(b, d+1, "expressLinks")
	b = appendSpans(b, d+1, s.Express)
	b = appendNewline(b, d)
	return append(b, '}'), nil
}

// appendSpans appends spans as an array value at nesting depth d: null when
// nil, [] when empty, otherwise one {"From","To"} object per line.
func appendSpans(b []byte, d int, spans []topo.Span) []byte {
	switch {
	case spans == nil:
		return append(b, "null"...)
	case len(spans) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, sp := range spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNewline(b, d+1)
		b = append(b, '{')
		b = appendKey(b, d+2, "From")
		b = strconv.AppendInt(b, int64(sp.From), 10)
		b = append(b, ',')
		b = appendKey(b, d+2, "To")
		b = strconv.AppendInt(b, int64(sp.To), 10)
		b = appendNewline(b, d+1)
		b = append(b, '}')
	}
	b = appendNewline(b, d)
	return append(b, ']')
}

// appendKey starts an object member at nesting depth d: newline, indent,
// quoted name and the ": " separator. Names are plain ASCII, so they need
// no escaping.
func appendKey(b []byte, d int, name string) []byte {
	b = appendNewline(b, d)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, "\": "...)
}

// newlineIndent holds a newline and the two-space indent of every depth
// the solve response reaches (5: the members of an express span inside an
// entry of "all").
const newlineIndent = "\n          "

// appendNewline appends a newline and the two-space indent of depth d.
func appendNewline(b []byte, d int) []byte { return append(b, newlineIndent[:1+2*d]...) }

// appendFloat appends f the way encoding/json formats a float64 (see
// numfmt.AppendJSON). NaN and ±Inf have no JSON form and fail with
// encoding/json's UnsupportedValueError.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return numfmt.AppendJSON(b, f), nil
}
