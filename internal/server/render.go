package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"
)

// The release and cube bodies are most of a cache miss's encoding work:
// hundreds to thousands of floats per response, each of which
// encoding/json reaches by reflection. They are written here by hand
// instead, into one pooled buffer sized up front, and returned as an
// exact-length copy (what json.Marshal returns, so a cached payload holds
// no slack); the same writer writes the budget tail spliced onto every
// response, hit or miss. The output is json.Marshal's, byte for byte, and
// so are the errors: appendJSONFloat reproduces encoding/json's float
// formatting, and appendJSONString hands any string that would need
// escaping back to encoding/json.
//
// Printing the floats costs about as much as computing them, so
// appendJSONFloat writes every normal float with the Schubfach
// shortest-float kernel (schubfach.go), about twice strconv's speed.
// jsonFloatStrconv, the strconv path it replaced, still writes zero,
// subnormals and the non-finite errors, and is the oracle the kernel is
// tested against byte for byte (TestJSONFloatMatchesStrconv,
// FuzzJSONFloat).

// marshal returns json.Marshal(b) byte for byte, written without
// reflection.
func (b releaseBody) marshal() ([]byte, error) {
	w := newBodyWriter(len(`{"strategy":,"total_variance":,"tables":}`) +
		jsonStringBound(b.Strategy) + floatBound + tablesBound(b.Tables))
	defer w.free()
	w.raw(`{"strategy":`)
	w.string(b.Strategy)
	w.raw(`,"total_variance":`)
	w.float(b.TotalVariance)
	w.raw(`,"tables":`)
	w.tables(b.Tables)
	w.raw(`}`)
	return w.bytes()
}

// marshal returns json.Marshal(b) byte for byte, written without
// reflection.
func (b cubeBody) marshal() ([]byte, error) {
	w := newBodyWriter(len(`{"max_order":,"total_variance":,"cuboids":}`) +
		intLen(b.MaxOrder) + floatBound + tablesBound(b.Cuboids))
	defer w.free()
	w.raw(`{"max_order":`)
	w.buf = strconv.AppendInt(w.buf, int64(b.MaxOrder), 10)
	w.raw(`,"total_variance":`)
	w.float(b.TotalVariance)
	w.raw(`,"cuboids":`)
	w.tables(b.Cuboids)
	w.raw(`}`)
	return w.bytes()
}

// floatBound is the longest float64 appendJSONFloat writes:
// "-0.0000012345678901234567" (the 'f' form just above 1e-6 with 17
// significant digits) has 25 bytes, the longest 'e' form 24.
const floatBound = 25

// budgetBound bounds the encoded length of a budgetJSON.
const budgetBound = len(`{"epsilon_spent":,"epsilon_cap":,"delta_spent":,"delta_cap":,"releases":}`) +
	4*floatBound + len("-9223372036854775808")

// budget writes b as encoding/json writes a budgetJSON.
func (w *bodyWriter) budget(b budgetJSON) {
	w.raw(`{"epsilon_spent":`)
	w.float(b.EpsilonSpent)
	w.raw(`,"epsilon_cap":`)
	w.float(b.EpsilonCap)
	w.raw(`,"delta_spent":`)
	w.float(b.DeltaSpent)
	w.raw(`,"delta_cap":`)
	w.float(b.DeltaCap)
	w.raw(`,"releases":`)
	w.buf = strconv.AppendInt(w.buf, int64(b.Releases), 10)
	w.raw("}")
}

// tablesBound bounds the encoded length of ts.
func tablesBound(ts []marginalJSON) int {
	n := len("null")
	for _, t := range ts {
		n += len(`{"attrs":null,"cells":null,"variance":},`) + floatBound +
			len(t.Attrs) + len(t.Cells)*(floatBound+1)
		for _, a := range t.Attrs {
			n += intLen(a)
		}
	}
	return n
}

// bodyWriter appends one JSON body into a buffer, a pooled one when
// newBodyWriter built it. The first error sticks: later writes are wasted
// but harmless, and bytes reports it.
type bodyWriter struct {
	buf    []byte
	pooled *[]byte
	err    error
}

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// newBodyWriter takes a pooled buffer with room for size bytes.
func newBodyWriter(size int) *bodyWriter {
	p := bodyPool.Get().(*[]byte)
	if cap(*p) < size {
		*p = make([]byte, 0, size)
	}
	return &bodyWriter{buf: (*p)[:0], pooled: p}
}

// bytes returns an exact-length copy of the body, or the first error.
func (w *bodyWriter) bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return append([]byte(nil), w.buf...), nil
}

// free returns the buffer, grown or not, to the pool.
func (w *bodyWriter) free() {
	*w.pooled = w.buf[:0]
	bodyPool.Put(w.pooled)
}

func (w *bodyWriter) raw(s string) { w.buf = append(w.buf, s...) }

func (w *bodyWriter) string(s string) { w.buf = appendJSONString(w.buf, s) }

func (w *bodyWriter) float(f float64) {
	var err error
	if w.buf, err = appendJSONFloat(w.buf, f); err != nil && w.err == nil {
		w.err = err
	}
}

// tables writes ts as encoding/json writes a []marginalJSON.
func (w *bodyWriter) tables(ts []marginalJSON) {
	if ts == nil {
		w.raw("null")
		return
	}
	w.raw("[")
	for i, t := range ts {
		if i > 0 {
			w.raw(",")
		}
		w.raw(`{"attrs":`)
		w.buf = appendInts(w.buf, t.Attrs)
		w.raw(`,"cells":`)
		if t.Cells == nil {
			w.raw("null")
		} else {
			w.raw("[")
			for j, v := range t.Cells {
				if j > 0 {
					w.raw(",")
				}
				w.float(v)
			}
			w.raw("]")
		}
		w.raw(`,"variance":`)
		w.float(t.Variance)
		w.raw("}")
	}
	w.raw("]")
}

// appendInts appends vs as encoding/json writes a []int: nil as null.
func appendInts(buf []byte, vs []int) []byte {
	if vs == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']')
}

// appendJSONFloat appends f exactly as encoding/json encodes a float64:
// the shortest representation that round-trips, in 'f' form except below
// 1e-6 and from 1e21 on in magnitude, where it switches to 'e' form with
// a single-digit negative exponent written without its leading zero
// (e-7, not e-07). NaN and ±Inf are refused with the
// *json.UnsupportedValueError json.Marshal returns for them. Normal
// floats go through the Schubfach kernel (schubfach.go); zero, subnormals,
// NaN and ±Inf through jsonFloatStrconv.
func appendJSONFloat(buf []byte, f float64) ([]byte, error) {
	u := math.Float64bits(f)
	if biased := u >> 52 & 0x7ff; biased == 0 || biased == 0x7ff {
		return jsonFloatStrconv(buf, f)
	}
	if u>>63 != 0 {
		buf = append(buf, '-')
		u &^= 1 << 63
	}
	abs := math.Float64frombits(u)
	return appendShortest(buf, u, abs < 1e-6 || abs >= 1e21), nil
}

// jsonFloatStrconv is appendJSONFloat through strconv's shortest
// formatting: the path for zero, subnormals, NaN and ±Inf, and the oracle
// the Schubfach kernel is tested against for every other float.
func jsonFloatStrconv(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

// appendJSONString appends s as encoding/json encodes a string. Plain
// printable ASCII that needs no escaping — every strategy name — is quoted
// directly; anything else goes through encoding/json, which owns the
// escaping rules (HTML-safe <, > and &, control characters, U+2028/U+2029,
// invalid UTF-8).
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// jsonStringBound bounds the encoded length of s: quotes plus at most six
// bytes (\u00XX) per input byte.
func jsonStringBound(s string) int { return 2 + 6*len(s) }
