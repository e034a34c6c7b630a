package proto

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dps/internal/power"
)

func TestRecordIsThreeBytes(t *testing.T) {
	// The paper's overhead claim rests on this constant.
	if RecordSize != 3 {
		t.Fatalf("RecordSize = %d, the paper's protocol is 3 bytes per request", RecordSize)
	}
	var buf [RecordSize]byte
	PutRecord(buf[:], Record{LocalUnit: 7, Value: 1234})
	got := GetRecord(buf[:])
	if got.LocalUnit != 7 || got.Value != 1234 {
		t.Errorf("roundtrip = %+v", got)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(unit uint8, value uint16) bool {
		var buf [RecordSize]byte
		PutRecord(buf[:], Record{LocalUnit: unit, Value: value})
		got := GetRecord(buf[:])
		return got.LocalUnit == unit && got.Value == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeciwattQuantization(t *testing.T) {
	// Wire quantization error is bounded by half a deciwatt.
	for _, w := range []power.Watts{0, 0.04, 19.96, 110.55, 165, 6553.5} {
		got := FromDeciwatts(ToDeciwatts(w))
		if math.Abs(float64(got-w)) > 0.05 {
			t.Errorf("%v W roundtrips to %v (error > 0.05 W)", w, got)
		}
	}
	if ToDeciwatts(-5) != 0 {
		t.Error("negative power not clamped to 0")
	}
	if ToDeciwatts(1e9) != MaxDeciwatts {
		t.Error("huge power not clamped to the uint16 ceiling")
	}
}

func TestQuantizationErrorBoundProperty(t *testing.T) {
	f := func(raw float64) bool {
		w := power.Watts(math.Mod(math.Abs(raw), 6553))
		got := FromDeciwatts(ToDeciwatts(w))
		return math.Abs(float64(got-w)) <= 0.05+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Hello{FirstUnit: 18, Units: 2}
	if err := WriteHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HelloSize {
		t.Errorf("handshake is %d bytes, want %d", buf.Len(), HelloSize)
	}
	got, err := ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip = %+v, want %+v", got, h)
	}
}

func TestHelloValidation(t *testing.T) {
	bad := []Hello{
		{FirstUnit: -1, Units: 1},
		{FirstUnit: 0, Units: 0},
		{FirstUnit: 0, Units: 300},
		{FirstUnit: 0xFFFF, Units: 2}, // range overflows the unit space
	}
	for _, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", h)
		}
		var buf bytes.Buffer
		if err := WriteHello(&buf, h); err == nil {
			t.Errorf("WriteHello accepted %+v", h)
		}
	}
}

func TestReadHelloRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"short":       {1, 2, 3},
		"bad magic":   {'N', 'O', 'P', 'E', Version, 0, 0, 1, 0},
		"bad version": {'D', 'P', 'S', '1', 99, 0, 0, 1, 0},
		"version 1":   {'D', 'P', 'S', '1', 1, 0, 0, 1},
		"bad units":   {'D', 'P', 'S', '1', Version, 0, 0, 0, 0},
		"batch bit":   {'D', 'P', 'S', '1', Version, 0, 0, 1, 1 << 1},
		"bad flags":   {'D', 'P', 'S', '1', Version, 0, 0, 1, 0x80},
		"short flags": {'D', 'P', 'S', '1', Version, 0, 0, 1},
	}
	for name, raw := range cases {
		if _, err := ReadHello(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: ReadHello accepted %v", name, raw)
		}
	}
}

// TestHelloV2RoundTrip pins the two hellos byte for byte: an agent's is
// version 3 with a zero flags byte, a standby's sets FlagReplicate, and
// both read back as written.
func TestHelloV2RoundTrip(t *testing.T) {
	for _, c := range []struct {
		h    Hello
		want []byte
	}{
		{Hello{FirstUnit: 18, Units: 2}, []byte{'D', 'P', 'S', '1', 3, 0, 18, 2, 0}},
		{Hello{FirstUnit: 0, Units: 1, Replicate: true}, []byte{'D', 'P', 'S', '1', 3, 0, 0, 1, FlagReplicate}},
	} {
		var buf bytes.Buffer
		if err := WriteHello(&buf, c.h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), c.want) {
			t.Errorf("%+v: hello = %v, want %v", c.h, buf.Bytes(), c.want)
		}
		got, err := ReadHello(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.h {
			t.Errorf("roundtrip = %+v, want %+v", got, c.h)
		}
	}
}

// TestHelloTraceCtxRoundTrip: the version-2 dialects are refused — the
// old capability bits on a version-3 hello like any unknown bit, and a
// version-2 hello on its version byte, before its flags byte is read.
func TestHelloTraceCtxRoundTrip(t *testing.T) {
	for _, flags := range []byte{1 << 0, 1 << 3, 1<<0 | 1<<3, FlagReplicate | 1<<3} {
		raw := []byte{'D', 'P', 'S', '1', Version, 0, 18, 2, flags}
		if h, err := ReadHello(bytes.NewReader(raw)); err == nil {
			t.Errorf("flags %#02x: ReadHello accepted %+v", flags, h)
		}
	}
	// Eight bytes only: a refusal that waited for the flags byte would
	// report a short read instead of the version.
	_, err := ReadHello(bytes.NewReader([]byte{'D', 'P', 'S', '1', 2, 0, 18, 2}))
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version-2 hello: err = %v, want an unsupported-version refusal", err)
	}
}

// TestApplyEchoRoundTrip: an echo is 3 bytes — the FrameApply byte and
// the duration in µs, clamped at 0 and saturating — and reads back as
// KindApply.
func TestApplyEchoRoundTrip(t *testing.T) {
	h := Hello{FirstUnit: 0, Units: 1}
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, 0},
		{-5 * time.Millisecond, 0}, // negative clamps to 0
		{250 * time.Microsecond, 250 * time.Microsecond},
		{3 * time.Millisecond, 3 * time.Millisecond},
		{time.Second, MaxApplyEcho}, // saturates at ~65.5 ms
		{999 * time.Nanosecond, 0},  // sub-µs truncates
	}
	for _, c := range cases {
		var buf bytes.Buffer
		s := newSession(&buf, h)
		if err := s.WriteApplyEcho(c.in); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 3 {
			t.Errorf("apply echo frame is %d bytes, want 3 (the record size)", buf.Len())
		}
		if frame := buf.Bytes()[0]; frame != FrameApply {
			t.Errorf("echo frame type %q, want %q", frame, FrameApply)
		}
		frame, err := s.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if frame.Kind != KindApply || frame.ApplyDur != c.want {
			t.Errorf("echo of %v reads back as %+v, want %v", c.in, frame, c.want)
		}
		s.Release()
	}
	truncated := newSession(bytes.NewBuffer([]byte{FrameApply, 1}), h)
	if _, err := truncated.ReadFrame(); err == nil {
		t.Error("ReadFrame accepted a truncated apply echo")
	}
}
