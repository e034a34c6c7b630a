package section

import (
	"bytes"
	"math"
	"testing"
)

// stream frames the given payloads as sections with ids 1, 2, 3, ...
func stream(payloads ...[]byte) []byte {
	var b []byte
	for i, p := range payloads {
		var start int
		b, start = Begin(b, uint16(i+1))
		b = append(b, p...)
		b = End(b, start)
	}
	return b
}

type walked struct {
	id           uint16
	payload, raw []byte
}

func walkAll(w Walker) ([]walked, Stop) {
	var out []walked
	for w.Next() {
		out = append(out, walked{w.ID, w.Payload, w.Raw})
	}
	return out, w.Stop
}

func TestWalkRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{0xAB}, 300)}
	data := stream(payloads...)
	got, stop := walkAll(Walk(data))
	if stop != Clean || len(got) != len(payloads) {
		t.Fatalf("walk yielded %d sections and stopped at %v, want %d and a clean end", len(got), stop, len(payloads))
	}
	var rejoined []byte
	for i, s := range got {
		if s.id != uint16(i+1) || !bytes.Equal(s.payload, payloads[i]) || len(s.raw) != len(s.payload)+Overhead {
			t.Errorf("section %d: id %d, payload %q, raw %d bytes", i, s.id, s.payload, len(s.raw))
		}
		rejoined = append(rejoined, s.raw...)
	}
	if !bytes.Equal(rejoined, data) {
		t.Error("concatenated raws do not reproduce the stream")
	}
}

func TestWalkStopReasons(t *testing.T) {
	data := stream([]byte("one"), []byte("two"))
	first := len("one") + Overhead

	for cut := first + 1; cut < len(data); cut++ {
		if got, stop := walkAll(Walk(data[:cut])); stop != Truncated || len(got) != 1 {
			t.Fatalf("cut at %d: %d sections, stop %v; want 1, truncated", cut, len(got), stop)
		}
	}
	flipped := append([]byte(nil), data...)
	flipped[first+headerSize] ^= 0x01 // second section's payload
	if got, stop := walkAll(Walk(flipped)); stop != BadCRC || len(got) != 1 {
		t.Fatalf("payload flip: %d sections, stop %v; want 1, CRC mismatch", len(got), stop)
	}
	// The trusted walk skips exactly the CRC check, nothing structural.
	if got, stop := walkAll(WalkTrusted(flipped)); stop != Clean || len(got) != 2 {
		t.Fatalf("trusted walk of a flipped payload: %d sections, stop %v; want 2, clean", len(got), stop)
	}
	if got, stop := walkAll(WalkTrusted(data[:len(data)-1])); stop != Truncated || len(got) != 1 {
		t.Fatalf("trusted walk of a torn tail: %d sections, stop %v; want 1, truncated", len(got), stop)
	}
	// A length field pointing far past the input is a truncation, not a
	// huge slice.
	huge := AppendU32(AppendU16(nil, 9), 0xFFFFFFFF)
	if got, stop := walkAll(Walk(huge)); stop != Truncated || len(got) != 0 {
		t.Fatalf("oversized length: %d sections, stop %v", len(got), stop)
	}
}

func TestCursor(t *testing.T) {
	b := AppendF64(AppendU64(AppendU32(AppendU16([]byte{7}, 0x1234), 0xDEADBEEF), 1<<63|5), -2.5)
	c := NewCursor(b)
	if c.U8() != 7 || c.U16() != 0x1234 || c.U32() != 0xDEADBEEF || c.U64() != 1<<63|5 || c.F64() != -2.5 {
		t.Fatal("cursor did not read back what the append helpers wrote")
	}
	if c.Short() || c.Len() != 0 {
		t.Fatalf("exact read: short %v, %d left", c.Short(), c.Len())
	}
	if c.U8() != 0 || !c.Short() {
		t.Fatal("read past the end did not latch Short")
	}
	// Once short, always short: later reads return zero even if bytes
	// would fit, so one check per payload suffices.
	c = NewCursor([]byte{1, 2, 3})
	if c.U32() != 0 || c.U8() != 0 || !c.Short() {
		t.Fatal("short cursor kept reading")
	}
}

// checkBulk reads n words from payload through the column readers and
// through n scalar reads: the same values when the payload holds them,
// and when it does not — the short path — Short latched, nothing
// consumed and the destination zeroed, never a panic or a partial fill.
func checkBulk(t *testing.T, payload []byte, n int) {
	t.Helper()
	scalar, words, floats := NewCursor(payload), NewCursor(payload), NewCursor(payload)
	gotW, gotF := make([]uint64, n), make([]float64, n)
	for i := range gotW {
		gotW[i], gotF[i] = ^uint64(0), -1 // must not survive a short read
	}
	U64s(&words, gotW)
	F64s(&floats, gotF)
	fits := 8*n <= len(payload)
	if words.Short() == fits || floats.Short() == fits {
		t.Fatalf("%d words of %d bytes: Short %v/%v", n, len(payload), words.Short(), floats.Short())
	}
	wantLeft := len(payload)
	if fits {
		wantLeft -= 8 * n
	}
	if words.Len() != wantLeft || floats.Len() != wantLeft {
		t.Fatalf("%d words of %d bytes: %d/%d bytes left, want %d", n, len(payload), words.Len(), floats.Len(), wantLeft)
	}
	for i := 0; i < n; i++ {
		want := scalar.U64()
		if !fits {
			want = 0
		}
		if gotW[i] != want || math.Float64bits(gotF[i]) != want {
			t.Fatalf("word %d of %d: bulk %#x / %#x, scalar %#x", i, n, gotW[i], math.Float64bits(gotF[i]), want)
		}
	}
	if words.U8(); !fits && !words.Short() {
		t.Fatal("a short bulk read did not stay short")
	}
}

func TestBulkReaders(t *testing.T) {
	var b []byte
	for _, v := range []uint64{0, 1, 1<<63 | 5, math.Float64bits(math.NaN()), math.Float64bits(-2.5)} {
		b = AppendU64(b, v)
	}
	for cut := 0; cut <= len(b); cut++ {
		for n := 0; n <= 6; n++ {
			checkBulk(t, b[:cut], n)
		}
	}
	// A column after scalars starts where they stopped.
	c := NewCursor(append([]byte{9}, b...))
	got := make([]uint64, 5)
	c.U8()
	U64s(&c, got)
	if c.Short() || c.Len() != 0 || got[2] != 1<<63|5 {
		t.Fatalf("column after a scalar: short %v, %d left, %#x", c.Short(), c.Len(), got)
	}
}

// FuzzSectionWalk is the one fuzz target for the framing both the
// snapshot and black-box formats sit on (their own fuzzers cover the
// payloads). On arbitrary bytes the walker never panics, every section
// it yields re-verifies on its own, and cutting the input at any offset
// yields a prefix of the uncut walk.
func FuzzSectionWalk(f *testing.F) {
	valid := stream([]byte("alpha"), nil, bytes.Repeat([]byte{0x5A}, 70))
	f.Add(valid, 0)
	f.Add(valid, len(valid)/2)
	f.Add(valid[:len(valid)-3], 7)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped, 20)
	f.Add(AppendU32(AppendU16(nil, 1), 0xFFFFFFF0), 3)
	f.Add([]byte{}, 0)

	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		full, stop := walkAll(Walk(data))
		consumed := 0
		for i, s := range full {
			if !bytes.Equal(s.raw, data[consumed:consumed+len(s.raw)]) {
				t.Fatalf("section %d: raw is not the next bytes of the input", i)
			}
			consumed += len(s.raw)
			again, stop := walkAll(Walk(s.raw))
			if stop != Clean || len(again) != 1 || again[0].id != s.id || !bytes.Equal(again[0].payload, s.payload) {
				t.Fatalf("section %d does not re-verify on its own (stop %v)", i, stop)
			}
		}
		// The column readers, on whatever payload the fuzzer framed and a
		// column length it picked: a short payload must zero and latch.
		for _, s := range full {
			checkBulk(t, s.payload, (cut&0xffff)%80)
		}
		checkBulk(t, data, (cut&0xffff)%80)
		if (stop == Clean) != (consumed == len(data)) {
			t.Fatalf("stop %v with %d of %d bytes consumed", stop, consumed, len(data))
		}

		if cut < 0 || cut > len(data) {
			return
		}
		prefix, _ := walkAll(Walk(data[:cut]))
		if len(prefix) > len(full) {
			t.Fatalf("cut at %d yields %d sections, the uncut walk %d", cut, len(prefix), len(full))
		}
		for i, s := range prefix {
			if s.id != full[i].id || !bytes.Equal(s.raw, full[i].raw) {
				t.Fatalf("cut at %d: section %d differs from the uncut walk", cut, i)
			}
		}
	})
}
