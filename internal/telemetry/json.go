package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// JSONBody is one hand-assembled JSON response: the views that use it
// (/status, /debug/rounds) copy what they show first, under whatever lock
// guards it, and append the copy here field by field, with no
// intermediate struct and no reflection. Numbers go through the number
// appender and come out byte for byte as encoding/json writes them. A
// value encoding/json refuses (a non-finite number, a time outside RFC
// 3339) is remembered, the first one in document order, and Serve answers
// it with encoding/json's 500 and message before a byte of the body is
// written. Like encoding/json's
// Encoder, Serve hands the writer the whole body in one Write: a
// buffering writer (an httptest.ResponseRecorder, a proxy) then grows its
// buffer once instead of doubling through every chunk. The body's buffer
// comes from a pool, as the Encoder's does.
type JSONBody struct {
	buf []byte
	num numbers
	err error
}

// bodies holds the buffers of served bodies for the next to reuse.
var bodies sync.Pool

// NewJSONBody starts an empty body.
func NewJSONBody() *JSONBody {
	j := &JSONBody{num: numbers{json: true}}
	if b, ok := bodies.Get().(*[]byte); ok {
		j.buf = (*b)[:0]
	}
	return j
}

// Raw appends s as it stands: punctuation and keys.
func (j *JSONBody) Raw(s string) { j.buf = append(j.buf, s...) }

// String appends s as a JSON string.
func (j *JSONBody) String(s string) { j.buf = appendJSONString(j.buf, s) }

// Int appends v.
func (j *JSONBody) Int(v int) { j.buf = strconv.AppendInt(j.buf, int64(v), 10) }

// Uint appends v.
func (j *JSONBody) Uint(v uint64) { j.buf = strconv.AppendUint(j.buf, v, 10) }

// Float appends v; a non-finite v fails the body.
func (j *JSONBody) Float(v float64) { j.buf = j.float(j.buf, v) }

// float appends v to b, the body's buffer or a tail of it.
func (j *JSONBody) float(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		j.fail(&json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)})
		return b
	}
	return j.num.append(b, v)
}

// fail records err unless an earlier value failed the body.
func (j *JSONBody) fail(err error) {
	if j.err == nil {
		j.err = err
	}
}

// FloatArray appends vals as a JSON array of numbers.
func FloatArray[T ~float64](j *JSONBody, vals []T) {
	b := append(j.buf, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = j.float(b, float64(v))
	}
	j.buf = append(b, ']')
}

// BoolArray appends vals as a JSON array.
func (j *JSONBody) BoolArray(vals []bool) {
	b := append(j.buf, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, v)
	}
	j.buf = append(b, ']')
}

// StringArray appends name(v) for each of vals as a JSON array of
// strings.
func StringArray[T any](j *JSONBody, vals []T, name func(T) string) {
	b := append(j.buf, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, name(v))
	}
	j.buf = append(b, ']')
}

// Serve answers with the body as application/json, or with encoding/json's
// error as a 500 when a value failed it, and gives the body's buffers
// back; j is not to be used again.
func (j *JSONBody) Serve(w http.ResponseWriter) {
	if j.err != nil {
		http.Error(w, j.err.Error(), http.StatusInternalServerError)
	} else {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(j.buf) // a failed Write on w itself: nobody left to tell
	}
	bodies.Put(&j.buf)
}

// appendJSONString appends s quoted as encoding/json quotes it (HTML
// characters escaped). Plain ASCII, which every name the views print is,
// is copied; anything else goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
