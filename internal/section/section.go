// Package section is the one definition of the CRC-framed section format
// that snapshot images (internal/snapshot) and black-box segments
// (internal/blackbox) share byte for byte:
//
//	section: id u16 | length u32 | payload [length] | crc32 u32
//
// All integers are little-endian; floats are IEEE-754 bit patterns. The
// CRC-32 (IEEE) covers id, length and payload, so a bit flip anywhere in
// a section is caught at that section. Writers bracket a payload with
// Begin/End; readers iterate with a Walker and parse payloads with a
// Cursor. The package knows nothing about ids or payload layouts, and
// error policy stays with the caller: the Walker only says why it
// stopped.
package section

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// headerSize is id + length; Overhead adds the trailing CRC.
const (
	headerSize = 6
	Overhead   = headerSize + 4
)

func AppendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func AppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func AppendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// Begin appends a section header with a zero length placeholder and
// returns the offset of the section start, for End.
func Begin(b []byte, id uint16) ([]byte, int) {
	start := len(b)
	return AppendU32(AppendU16(b, id), 0), start
}

// End backfills the length of the section begun at start and appends the
// CRC over id+length+payload.
func End(b []byte, start int) []byte {
	n := uint32(len(b) - start - headerSize)
	b[start+2], b[start+3], b[start+4], b[start+5] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return AppendU32(b, crc32.ChecksumIEEE(b[start:]))
}

// Stop says why a Walker's Next returned false.
type Stop uint8

const (
	// Clean: the input ended exactly on a section boundary.
	Clean Stop = iota
	// Truncated: the remaining bytes end inside a section's framing (a
	// torn tail, or a length field pointing past the input).
	Truncated
	// BadCRC: the next section is complete but its checksum does not
	// match.
	BadCRC
)

func (s Stop) String() string {
	return [...]string{"clean end", "truncated section", "section CRC mismatch"}[s]
}

// Walker iterates the sections of a byte stream (a bare concatenation of
// framings; callers strip their own file header first). After Next
// returns true, ID, Payload and Raw describe the section, aliasing the
// input; after it returns false, Stop says why and Rest is what was left.
type Walker struct {
	ID      uint16
	Payload []byte // the inner payload alone
	Raw     []byte // the full framing: id, length, payload, CRC
	Stop    Stop
	Rest    []byte
	trusted bool
}

// Walk iterates data, verifying every section's CRC.
func Walk(data []byte) Walker { return Walker{Rest: data} }

// WalkTrusted iterates data without verifying CRCs, for bytes this
// process encoded or validated itself a moment ago.
func WalkTrusted(data []byte) Walker { return Walker{Rest: data, trusted: true} }

// Next advances to the next section.
func (w *Walker) Next() bool {
	if len(w.Rest) == 0 {
		w.Stop = Clean
		return false
	}
	hdr := Cursor{b: w.Rest}
	id, n := hdr.U16(), hdr.U32()
	total := uint64(n) + Overhead
	if hdr.Short() || uint64(len(w.Rest)) < total {
		w.Stop = Truncated
		return false
	}
	raw := w.Rest[:total]
	crc := Cursor{b: raw, off: len(raw) - 4}
	if !w.trusted && crc32.ChecksumIEEE(raw[:crc.off]) != crc.U32() {
		w.Stop = BadCRC
		return false
	}
	w.ID, w.Payload, w.Raw = id, raw[headerSize:len(raw)-4], raw
	w.Rest = w.Rest[total:]
	return true
}

// Cursor is a bounds-checked little-endian reader over one payload.
// Reads past the end return zero and latch Short, so a decoder checks
// once per payload instead of after every field, and malformed input
// can only produce an error, never a panic.
type Cursor struct {
	b     []byte
	off   int
	short bool
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Short reports whether any read ran past the end.
func (c *Cursor) Short() bool { return c.short }

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) - c.off }

func (c *Cursor) U8() uint8 {
	if c.short || c.off+1 > len(c.b) {
		c.short = true
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *Cursor) U16() uint16 {
	if c.short || c.off+2 > len(c.b) {
		c.short = true
		return 0
	}
	b := c.b[c.off:]
	c.off += 2
	return uint16(b[0]) | uint16(b[1])<<8
}

func (c *Cursor) U32() uint32 {
	if c.short || c.off+4 > len(c.b) {
		c.short = true
		return 0
	}
	b := c.b[c.off:]
	c.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (c *Cursor) U64() uint64 {
	if c.short || c.off+8 > len(c.b) {
		c.short = true
		return 0
	}
	// Small enough to inline (the byte-by-byte form is not), so the
	// decoders' per-unit float reads stay in their loops.
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// take returns the next n bytes under one bounds check; when fewer
// remain it latches Short and reports false.
func (c *Cursor) take(n int) ([]byte, bool) {
	if c.short || n > len(c.b)-c.off {
		c.short = true
		return nil, false
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, true
}

// Skip steps over the next n bytes, latching Short when fewer remain.
func (c *Cursor) Skip(n int) { c.take(n) }

// U64s fills dst with the next len(dst) words: one bounds check for the
// column instead of one per word. A payload too short for all of them
// latches Short, consumes nothing and zeroes dst — a read past the end
// yields zeros, as with the scalar readers.
func U64s(c *Cursor, dst []uint64) {
	b, ok := c.take(8 * len(dst))
	if !ok {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// F64s is U64s for a column of floats (power.Watts, power.Seconds, ...).
func F64s[T ~float64](c *Cursor, dst []T) {
	b, ok := c.take(8 * len(dst))
	if !ok {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
	}
}
