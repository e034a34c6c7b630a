package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"
)

// FuzzReadHello feeds arbitrary bytes to the handshake parser: it must
// never panic and must only accept frames it could itself have produced.
// Version-1 and version-2 hellos and hellos carrying a retired flag bit
// (0, the old apply echo; 1, the old batch dialect; 3, the old round
// prefix) are seeds it must refuse.
func FuzzReadHello(f *testing.F) {
	for _, h := range []Hello{
		{FirstUnit: 18, Units: 2},
		{FirstUnit: 0, Units: 1, Replicate: true},
	} {
		var seed bytes.Buffer
		if err := WriteHello(&seed, h); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	f.Add([]byte("DPS1garbage"))
	for _, raw := range [][]byte{
		{'D', 'P', 'S', '1', 1, 0, 18, 2},               // version 1
		{'D', 'P', 'S', '1', 2, 0, 18, 2, 0},            // version 2
		{'D', 'P', 'S', '1', Version, 0, 18, 2, 1 << 0}, // the retired apply echo bit
		{'D', 'P', 'S', '1', Version, 0, 18, 2, 1 << 1}, // the retired batch bit
		{'D', 'P', 'S', '1', Version, 0, 18, 2, 1 << 3}, // the retired round prefix bit
	} {
		if h, err := ReadHello(bytes.NewReader(raw)); err == nil {
			f.Fatalf("ReadHello accepted %v as %+v", raw, h)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must re-encode to the same bytes it was read
		// from — the parser accepts only canonical frames.
		var out bytes.Buffer
		if err := WriteHello(&out, h); err != nil {
			t.Fatalf("accepted hello %+v cannot be re-encoded: %v", h, err)
		}
		if len(data) < HelloSize {
			t.Fatalf("accepted hello %+v from %d bytes, shorter than a hello (%d)", h, len(data), HelloSize)
		}
		if !bytes.Equal(out.Bytes(), data[:HelloSize]) {
			t.Fatalf("roundtrip mismatch: read %+v from %v, wrote %v", h, data[:HelloSize], out.Bytes())
		}
	})
}

// FuzzReadBatchFrame feeds arbitrary bytes to Session.ReadFrame on an
// 8-unit session: it must never panic and must only accept the canonical
// batch encoding — every batch frame it accepts re-encodes byte-identical
// through WriteDelta.
func FuzzReadBatchFrame(f *testing.F) {
	h := Hello{Units: 8}
	for _, recs := range [][]Record{
		{{LocalUnit: 0, Value: 1105}},
		{{LocalUnit: 1, Value: 425}, {LocalUnit: 3, Value: 0}, {LocalUnit: 7, Value: 0xFFFF}},
		{{LocalUnit: 0, Value: 1}, {LocalUnit: 1, Value: 2}, {LocalUnit: 2, Value: 3},
			{LocalUnit: 3, Value: 4}, {LocalUnit: 4, Value: 5}, {LocalUnit: 5, Value: 6},
			{LocalUnit: 6, Value: 7}, {LocalUnit: 7, Value: 8}},
	} {
		var seed bytes.Buffer
		s := newSession(&seed, h)
		if err := s.WriteDelta(recs); err != nil {
			f.Fatal(err)
		}
		s.Release()
		f.Add(seed.Bytes())
	}
	f.Add([]byte{FrameBatch, 0})                   // empty delta: must reject (that's a heartbeat)
	f.Add([]byte{FrameBatch, 2, 1, 0, 1, 0, 0, 1}) // decreasing units: must reject
	f.Add([]byte{FrameBatch, 1, 9, 0, 1})          // unit outside the session range
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newSession(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard}, h)
		defer s.Release()
		frame, err := s.ReadFrame()
		if err != nil || frame.Kind != KindBatch {
			return
		}
		// Anything accepted must re-encode to the same bytes it was read
		// from: count in [1, units], strictly increasing local units, all
		// inside the range.
		var out bytes.Buffer
		w := newSession(&out, h)
		defer w.Release()
		if err := w.WriteDelta(frame.Records); err != nil {
			t.Fatalf("accepted batch frame %+v cannot be re-encoded: %v", frame.Records, err)
		}
		n := out.Len()
		if len(data) < n {
			t.Fatalf("accepted %d records from %d bytes, shorter than their own encoding (%d)", len(frame.Records), len(data), n)
		}
		if !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("roundtrip mismatch: read %+v from %v, wrote %v", frame.Records, data[:n], out.Bytes())
		}
	})
}

// refReadFrame is the field-by-field ReadFrame the session had before it
// grew a read window — one io.ReadFull on the bare reader per header,
// count and body — kept as the reference FuzzSessionReadFrame holds the
// window to: same frames, same errors, whatever the chunking.
func refReadFrame(r io.Reader, h Hello) (Frame, error) {
	var hdr [1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, fmt.Errorf("proto: reading frame header: %w", err)
	}
	switch {
	case hdr[0] == FrameApply:
		var body [applyEchoBodySize]byte
		if _, err := io.ReadFull(r, body[:]); err != nil {
			return Frame{}, fmt.Errorf("proto: reading apply echo: %w", err)
		}
		return Frame{Kind: KindApply, ApplyDur: time.Duration(binary.BigEndian.Uint16(body[:])) * time.Microsecond}, nil
	case hdr[0] == FrameBatch:
		var count [1]byte
		if _, err := io.ReadFull(r, count[:]); err != nil {
			return Frame{Kind: KindBatch}, fmt.Errorf("proto: reading batch frame count: %w", err)
		}
		if count[0] < 1 || int(count[0]) > h.Units {
			return Frame{Kind: KindBatch}, errors.New("proto: bad batch frame count")
		}
		body := make([]byte, int(count[0])*RecordSize)
		if _, err := io.ReadFull(r, body); err != nil {
			return Frame{Kind: KindBatch}, fmt.Errorf("proto: reading batch frame of %d records: %w", count[0], err)
		}
		var recs []Record
		for i, prev := 0, -1; i < int(count[0]); i++ {
			rec := GetRecord(body[i*RecordSize:])
			if int(rec.LocalUnit) <= prev || int(rec.LocalUnit) >= h.Units {
				return Frame{Kind: KindBatch}, errors.New("proto: non-canonical batch frame")
			}
			prev = int(rec.LocalUnit)
			recs = append(recs, rec)
		}
		return Frame{Kind: KindBatch, Records: recs}, nil
	case hdr[0] == FrameHeartbeat:
		return Frame{Kind: KindHeartbeat}, nil
	}
	return Frame{}, errors.New("proto: unknown frame type")
}

// errClass reduces a read error to what a caller can act on: a clean end,
// a truncated frame, or a rejected one.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	}
	return "rejected"
}

// chunkReader delivers data in pieces sized by sizes (cycled; whole when
// empty), the last one together with io.EOF when eofWithData is set.
type chunkReader struct {
	data, sizes []byte
	i           int
	eofWithData bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.sizes) > 0 {
		n = min(n, int(c.sizes[c.i%len(c.sizes)])%64+1)
		c.i++
	}
	n = copy(p, c.data[:n])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// FuzzSessionReadFrame holds the session's read window to the reference
// reader: fuzzer bytes, cut into fuzzer-chosen chunks — single bytes, a
// frame split anywhere, several frames in one read, data arriving with
// io.EOF — must decode to the frame sequence refReadFrame gets from the
// same bytes read whole, and stop at the same frame with the same class
// of error (io.EOF at a frame boundary, io.ErrUnexpectedEOF inside a
// field, exactly where io.ReadFull reported each).
func FuzzSessionReadFrame(f *testing.F) {
	hellos := []Hello{
		{Units: 2},
		{Units: 3},
		{Units: 8},
		{Units: MaxNodeUnits},
	}
	for mode, h := range hellos {
		var stream bytes.Buffer
		w := newSession(&stream, h)
		full := make([]Record, h.Units)
		for i := range full {
			full[i] = Record{LocalUnit: uint8(i), Value: uint16(400 + 10*i)}
		}
		w.WriteDelta(full)
		w.WriteDelta([]Record{{LocalUnit: 1, Value: 425}})
		w.WriteHeartbeat()
		w.WriteApplyEcho(3 * time.Millisecond)
		w.WriteDelta(full)
		w.Release()
		f.Add(stream.Bytes(), []byte{}, uint8(mode))
		f.Add(stream.Bytes(), []byte{0}, uint8(mode)|4)
		f.Add(stream.Bytes(), []byte{2, 0, 6, 63}, uint8(mode))
		f.Add(stream.Bytes()[:stream.Len()-1], []byte{4}, uint8(mode)|4)
	}
	f.Add([]byte{FrameBatch}, []byte{}, uint8(2))
	f.Add([]byte{FrameBatch, 200}, []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data, sizes []byte, mode uint8) {
		h := hellos[mode&3]
		ref := bytes.NewReader(data)
		s := newSession(struct {
			io.Reader
			io.Writer
		}{&chunkReader{data: data, sizes: sizes, eofWithData: mode&4 != 0}, io.Discard}, h)
		defer s.Release()
		for i := 0; ; i++ {
			want, wantErr := refReadFrame(ref, h)
			got, err := s.ReadFrame()
			if errClass(err) != errClass(wantErr) {
				t.Fatalf("frame %d: window reader: %v, reference: %v", i, err, wantErr)
			}
			if err != nil {
				return
			}
			if got.Kind != want.Kind || got.ApplyDur != want.ApplyDur || !slices.Equal(got.Records, want.Records) {
				t.Fatalf("frame %d: window reader %+v, reference %+v", i, got, want)
			}
		}
	})
}
