package stats

import (
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// This file guards the JSON boundary against non-finite floats. encoding/json
// rejects NaN and ±Inf outright (json.UnsupportedValueError), so one poisoned
// float64 — a zero-sample aggregate, a saturation probe that never accepted a
// packet, a drained replica with an empty measurement window — used to fail
// the entire -json or HTTP response it rode in. MarshalSanitized keeps the
// fast path byte-identical to encoding/json and, only when plain marshaling
// fails, re-encodes with every non-finite value replaced by null, reporting
// the JSON paths it nulled so callers can attach the note the data deserves.
// No workload of the binary-coverage audit reached the fallback: it runs
// only when a response carries a non-finite float, and the daemon then sets
// the X-Explink-Sanitized header. Once no op can produce one, it can go.

// MarshalSanitized marshals v like json.Marshal, replacing non-finite floats
// (NaN, ±Inf) with null when — and only when — plain marshaling fails. The
// returned notes name each replaced value as "<path>: <value>" (e.g.
// "result.avgPacketLatency: NaN"); notes is nil when nothing was replaced,
// in which case the bytes are exactly json.Marshal's.
func MarshalSanitized(v any) ([]byte, []string, error) {
	return marshalSanitized(v, "", "")
}

// MarshalIndentSanitized is MarshalSanitized with json.MarshalIndent framing.
func MarshalIndentSanitized(v any, prefix, indent string) ([]byte, []string, error) {
	return marshalSanitized(v, prefix, indent)
}

func marshalSanitized(v any, prefix, indent string) ([]byte, []string, error) {
	marshal := func(v any) ([]byte, error) {
		if indent == "" && prefix == "" {
			return json.Marshal(v)
		}
		return json.MarshalIndent(v, prefix, indent)
	}
	buf, err := marshal(v)
	if err == nil {
		return buf, nil, nil
	}
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) {
		return nil, nil, err
	}
	var notes []string
	tree := sanitizeValue(reflect.ValueOf(v), "", &notes)
	buf, err = marshal(tree)
	if err != nil {
		return nil, nil, err
	}
	return buf, notes, nil
}

// sanitizeValue converts rv into a marshal-safe tree: structurally the same
// document encoding/json would produce, with non-finite floats replaced by
// nil (JSON null) and their paths recorded. It follows encoding/json's
// struct-tag rules (name, omitempty, "-", embedded flattening) closely
// enough for the repo's response types; values with custom marshalers are
// passed through their own MarshalJSON.
func sanitizeValue(rv reflect.Value, path string, notes *[]string) any {
	if !rv.IsValid() {
		return nil
	}
	// Custom marshalers own their encoding; if theirs fails (a non-finite
	// float inside), null the whole value with a note rather than guessing
	// at its internals.
	if rv.CanInterface() {
		switch m := rv.Interface().(type) {
		case json.Marshaler:
			buf, err := m.MarshalJSON()
			if err != nil {
				*notes = append(*notes, fmt.Sprintf("%s: unmarshalable (%v)", pathOrTop(path), err))
				return nil
			}
			return json.RawMessage(buf)
		case encoding.TextMarshaler:
			txt, err := m.MarshalText()
			if err != nil {
				*notes = append(*notes, fmt.Sprintf("%s: unmarshalable (%v)", pathOrTop(path), err))
				return nil
			}
			return string(txt)
		}
	}
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return nil
		}
		return sanitizeValue(rv.Elem(), path, notes)
	case reflect.Float32, reflect.Float64:
		f := rv.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			*notes = append(*notes, fmt.Sprintf("%s: %s", pathOrTop(path), nonFiniteName(f)))
			return nil
		}
		return rv.Interface()
	case reflect.Struct:
		out := make(map[string]any)
		sanitizeStruct(rv, path, out, notes)
		return out
	case reflect.Map:
		if rv.IsNil() {
			return nil
		}
		out := make(map[string]any, rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			key := mapKeyString(iter.Key())
			out[key] = sanitizeValue(iter.Value(), joinPath(path, key), notes)
		}
		return out
	case reflect.Slice:
		if rv.IsNil() {
			return nil
		}
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			return rv.Interface() // []byte keeps base64 encoding
		}
		fallthrough
	case reflect.Array:
		out := make([]any, rv.Len())
		for i := range out {
			out[i] = sanitizeValue(rv.Index(i), fmt.Sprintf("%s[%d]", path, i), notes)
		}
		return out
	default:
		if rv.CanInterface() {
			return rv.Interface()
		}
		return nil
	}
}

// sanitizeStruct walks rv's fields into out, flattening anonymous embedded
// structs the way encoding/json does.
func sanitizeStruct(rv reflect.Value, path string, out map[string]any, notes *[]string) {
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		fv := rv.Field(i)
		if f.Anonymous && name == "" {
			// Embedded field with no explicit name: flatten structs
			// (dereferencing a non-nil pointer), skip nil pointers.
			ev := fv
			for ev.Kind() == reflect.Pointer {
				if ev.IsNil() {
					ev = reflect.Value{}
					break
				}
				ev = ev.Elem()
			}
			if ev.IsValid() && ev.Kind() == reflect.Struct {
				sanitizeStruct(ev, path, out, notes)
				continue
			}
		}
		if !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if strings.Contains(","+opts+",", ",omitempty,") && isEmptyValue(fv) {
			continue
		}
		out[name] = sanitizeValue(fv, joinPath(path, name), notes)
	}
}

// isEmptyValue mirrors encoding/json's omitempty test.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.Interface, reflect.Pointer:
		return v.IsNil()
	}
	return false
}

func mapKeyString(k reflect.Value) string {
	if tm, ok := k.Interface().(encoding.TextMarshaler); ok {
		if txt, err := tm.MarshalText(); err == nil {
			return string(txt)
		}
	}
	switch k.Kind() {
	case reflect.String:
		return k.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(k.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.FormatUint(k.Uint(), 10)
	default:
		return fmt.Sprint(k.Interface())
	}
}

func nonFiniteName(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	default:
		return "-Inf"
	}
}

func joinPath(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

func pathOrTop(path string) string {
	if path == "" {
		return "value"
	}
	return path
}
