package telemetry

import (
	"math"
	"strconv"
	"sync"
)

// The number appender every view of this package formats floats with:
// /metrics values and histogram bounds in strconv's shortest 'g' form, the
// JSON views in encoding/json's form ('f', or 'e' outside [1e-6, 1e21)).
// Both are shortest round-trip texts, so the bytes equal strconv's and
// encoding/json's for every finite value; only the work to find them
// differs. Two layers sit in front of strconv's shortest-float search:
//
//   - An exact fast path. Every reading the controller holds is a wire
//     deciwatt, float64(dw)/10, and priority and health are small
//     integers. A value v with 0 ≤ v < 1e5 that is bitwise float64(k)/10
//     prints as k/10, or k/10 "." k%10, in integer arithmetic. That text
//     is the shortest that rounds back to v: any text with fewer digits
//     is at least 0.1 away, and the spacing of floats below 1e5 is under
//     1e-11. Below 1e5 neither form switches to an exponent.
//   - A direct-mapped memo keyed by the float's bits. The readjust step
//     leaves few distinct caps (Algorithms 3–4 restore to the constant
//     cap and equalize the high-priority ones), so a column repeats a few
//     hundred values. The memo lives for one render: it is cleared when a
//     render takes it, so no scrape's numbers come out of another's, and a
//     scrape of an unchanged state costs what its first one did.

// numMemoBits sizes the memo: 1 << numMemoBits entries of 40 B.
const numMemoBits = 10

// numEntry holds one formatted value; n == 0 marks an empty slot.
type numEntry struct {
	bits uint64
	n    uint8
	text [31]byte // the longest shortest text, "-0.0000012345678901234567", is 25
}

type numMemo [1 << numMemoBits]numEntry

// memos hands each render a memo; Get's result is cleared before use.
var memos = sync.Pool{New: func() any { return new(numMemo) }}

// numbers formats one render's floats, in one of the two forms.
type numbers struct {
	json bool
	memo *numMemo
}

// newNumbers takes a cleared memo for one render; release gives it back.
func newNumbers(json bool) numbers {
	m := memos.Get().(*numMemo)
	clear(m[:])
	return numbers{json: json, memo: m}
}

func (f *numbers) release() {
	memos.Put(f.memo)
	f.memo = nil
}

// append appends v's text. In the JSON form v must be finite: the views
// refuse a non-finite value before writing (see unsupported).
func (f *numbers) append(b []byte, v float64) []byte {
	if b, ok := appendDeci(b, v); ok {
		return b
	}
	bits := math.Float64bits(v)
	e := &f.memo[bits*0x9E3779B97F4A7C15>>(64-numMemoBits)]
	if e.n != 0 && e.bits == bits {
		return append(b, e.text[:e.n]...)
	}
	start := len(b)
	b = appendFloat(b, v, f.json)
	if n := len(b) - start; n <= len(e.text) {
		e.bits, e.n = bits, uint8(n)
		copy(e.text[:], b[start:])
	}
	return b
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
