package telemetry

import (
	"math"
	"strconv"
)

// The number appender every view of this package formats floats with:
// /metrics values and histogram bounds in strconv's shortest 'g' form, the
// JSON views in encoding/json's form ('f', or 'e' outside [1e-6, 1e21)).
// Both are shortest round-trip texts, so the bytes equal strconv's and
// encoding/json's for every finite value; only the work to find them
// differs. An exact fast path sits in front of strconv's shortest-float
// search: every cap the controller delivers and every reading it holds
// is a deciwatt, float64(dw)/10, and priority and health are small
// integers. A value v with 0 ≤ v < 1e5 that is bitwise float64(k)/10
// prints as k/10, or k/10 "." k%10, in integer arithmetic. That text is
// the shortest that rounds back to v: any text with fewer digits is at
// least 0.1 away, and the spacing of floats below 1e5 is under 1e-11.
// Below 1e5 neither form switches to an exponent.

// numbers formats floats in one of the two forms.
type numbers struct{ json bool }

// append appends v's text. In the JSON form v must be finite: the views
// refuse a non-finite value before writing (see unsupported).
func (f numbers) append(b []byte, v float64) []byte {
	if b, ok := appendDeci(b, v); ok {
		return b
	}
	return appendFloat(b, v, f.json)
}

// appendDeci is the fast path: v as k/10 when v is bitwise float64(k)/10
// for an integer 0 ≤ k < 1e6. It reports false for anything else,
// including -0, which prints as "-0".
func appendDeci(b []byte, v float64) ([]byte, bool) {
	if !(v >= 0 && v < 1e5) {
		return b, false
	}
	k := uint64(v*10 + 0.5)
	if math.Float64bits(float64(k)/10) != math.Float64bits(v) {
		return b, false
	}
	b = strconv.AppendUint(b, k/10, 10)
	if d := k % 10; d != 0 {
		b = append(b, '.', byte('0'+d))
	}
	return b, true
}

// appendFloat is strconv.AppendFloat(b, v, 'g', -1, 64), or with json
// what encoding/json writes for a finite float64.
func appendFloat(b []byte, v float64, json bool) []byte {
	if !json {
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		// e-09 is written e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}
