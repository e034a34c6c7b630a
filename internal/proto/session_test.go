package proto

import (
	"bytes"
	"io"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"dps/internal/power"
)

// pipePair runs the two handshake halves over an in-memory connection
// and returns the agent and server sessions.
func pipePair(t *testing.T, h Hello, epsilon power.Watts) (agent, server *Session) {
	t.Helper()
	ac, sc := net.Pipe()
	t.Cleanup(func() { ac.Close(); sc.Close() })
	srvc := make(chan *Session, 1)
	errc := make(chan error, 1)
	go func() {
		s, err := Accept(sc)
		if err == nil {
			err = s.Ack(epsilon)
		}
		srvc <- s
		errc <- err
	}()
	a, err := Connect(ac, h)
	if err != nil {
		t.Fatal(err)
	}
	s := <-srvc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return a, s
}

// TestSessionNegotiation: the handshake roundtrips through
// Connect/Accept for an agent and a standby, and every session sees the
// advertised epsilon.
func TestSessionNegotiation(t *testing.T) {
	cases := []Hello{
		{FirstUnit: 4, Units: 2},
		{FirstUnit: 0, Units: 1, Replicate: true},
	}
	for _, h := range cases {
		agent, server := pipePair(t, h, 1.5)
		if got := server.Hello(); got != h {
			t.Errorf("server negotiated %+v, want %+v", got, h)
		}
		if got := agent.Hello(); got != h {
			t.Errorf("agent negotiated %+v, want %+v", got, h)
		}
		if got := agent.DeltaEpsilon(); got != 1.5 {
			t.Errorf("%+v: agent epsilon = %v, want 1.5", h, got)
		}
		agent.Release()
		server.Release()
	}
}

// TestSessionReportRoundTrip: a full report is one batch frame carrying
// every unit — 2 + 3·n bytes — and arrives as KindBatch with one record
// per local unit.
func TestSessionReportRoundTrip(t *testing.T) {
	in := []Record{{LocalUnit: 0, Value: 1105}, {LocalUnit: 1, Value: 0}, {LocalUnit: 2, Value: 873}}
	h := Hello{FirstUnit: 0, Units: 3}
	var wire bytes.Buffer
	s := newSession(&wire, h)
	defer s.Release()
	if err := s.WriteDelta(in); err != nil {
		t.Fatal(err)
	}
	if wire.Len() != 2+RecordSize*h.Units {
		t.Errorf("full report is %d bytes, want %d", wire.Len(), 2+RecordSize*h.Units)
	}
	frame, err := s.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Kind != KindBatch || !slices.Equal(frame.Records, in) {
		t.Errorf("full report reads back as %+v, want a batch of %+v", frame, in)
	}
}

// TestSessionBatchDeltaRoundTrip: a sparse delta arrives as KindBatch
// carrying exactly the sent records, and a full report as a batch frame
// covering every unit.
func TestSessionBatchDeltaRoundTrip(t *testing.T) {
	h := Hello{FirstUnit: 16, Units: 4}
	agent, server := pipePair(t, h, 0)

	recs := []Record{{LocalUnit: 1, Value: 425}, {LocalUnit: 3, Value: 1650}}
	go func() { agent.WriteDelta(recs) }()
	frame, err := server.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Kind != KindBatch {
		t.Fatalf("frame kind = %v, want KindBatch", frame.Kind)
	}
	if !slices.Equal(frame.Records, recs) {
		t.Fatalf("records = %+v, want %+v", frame.Records, recs)
	}

	full := []Record{{LocalUnit: 0, Value: 10}, {LocalUnit: 1, Value: 20}, {LocalUnit: 2, Value: 30}, {LocalUnit: 3, Value: 40}}
	go func() { agent.WriteDelta(full) }()
	frame, err = server.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Kind != KindBatch || len(frame.Records) != h.Units {
		t.Fatalf("full report = kind %v with %d records, want KindBatch with %d", frame.Kind, len(frame.Records), h.Units)
	}
}

// TestSessionHeartbeat: a heartbeat is one byte on the wire and arrives
// as KindHeartbeat with no records.
func TestSessionHeartbeat(t *testing.T) {
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 2}, 0)
	go func() { agent.WriteHeartbeat() }()
	frame, err := server.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Kind != KindHeartbeat || len(frame.Records) != 0 {
		t.Fatalf("frame = %+v, want a bare heartbeat", frame)
	}
}

// TestSessionApplyEcho: the echo rides the shared socket beside batch
// frames and carries the duration.
func TestSessionApplyEcho(t *testing.T) {
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 2}, 0)
	go func() { agent.WriteApplyEcho(3 * time.Millisecond) }()
	frame, err := server.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Kind != KindApply || frame.ApplyDur != 3*time.Millisecond {
		t.Fatalf("frame = %+v, want a 3ms apply echo", frame)
	}
}

// TestSessionCapsRoundTrip: the downstream cap push is the round and a
// record batch, record i for local unit i.
func TestSessionCapsRoundTrip(t *testing.T) {
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 3}, 0)
	in := []power.Watts{110, 42.5, 165}
	go func() { server.WriteCapsRound(0, in) }()
	out := make([]power.Watts, 3)
	if _, err := agent.ReadCapsRound(out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if math.Abs(float64(out[i]-in[i])) > 0.05 {
			t.Errorf("cap[%d] = %v, want ~%v", i, out[i], in[i])
		}
	}
}

// TestSessionCapsRoundTripTraceCtx: every cap push carries the
// controller round, recovered by ReadCapsRound.
func TestSessionCapsRoundTripTraceCtx(t *testing.T) {
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 3}, 0)
	in := []power.Watts{110, 42.5, 165}
	out := make([]power.Watts, 3)
	for _, want := range []uint64{7, 8, 0} {
		go func() { server.WriteCapsRound(want, in) }()
		round, err := agent.ReadCapsRound(out)
		if err != nil {
			t.Fatal(err)
		}
		if round != want {
			t.Fatalf("round = %d, want %d", round, want)
		}
		for i := range in {
			if math.Abs(float64(out[i]-in[i])) > 0.05 {
				t.Errorf("cap[%d] = %v, want ~%v", i, out[i], in[i])
			}
		}
	}
}

// TestReadCapsRoundRefusesMisaddressedBatch: record i of a cap batch must
// address local unit i. A batch that names unit 0 twice and skips unit 1
// is refused and leaves every cap as it was, instead of programming unit
// 0 twice and leaving unit 1 on last round's cap.
func TestReadCapsRoundRefusesMisaddressedBatch(t *testing.T) {
	wire := make([]byte, 8) // the round
	for _, rec := range []Record{{LocalUnit: 0, Value: 1000}, {LocalUnit: 0, Value: 2000}, {LocalUnit: 2, Value: 3000}} {
		var b [RecordSize]byte
		PutRecord(b[:], rec)
		wire = append(wire, b[:]...)
	}
	s := newSession(bytes.NewBuffer(wire), Hello{Units: 3})
	defer s.Release()
	dst := []power.Watts{1, 2, 3}
	if _, err := s.ReadCapsRound(dst); err == nil {
		t.Error("ReadCapsRound accepted a batch naming unit 0 twice")
	}
	if !slices.Equal(dst, []power.Watts{1, 2, 3}) {
		t.Errorf("the refused batch changed the caps to %v", dst)
	}
}

// TestTraceCtxCapsWireFormat pins the cap batch bytes: an 8-byte
// big-endian round, then the raw records.
func TestTraceCtxCapsWireFormat(t *testing.T) {
	var out bytes.Buffer
	s := newSession(&out, Hello{FirstUnit: 0, Units: 2})
	if err := s.WriteCapsRound(0x0102030405060708, []power.Watts{1, 2}); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		1, 2, 3, 4, 5, 6, 7, 8, // round, big-endian
		0, 0, 10, // unit 0: 1 W = 10 dW
		1, 0, 20, // unit 1: 2 W = 20 dW
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("cap batch = %v, want %v", out.Bytes(), want)
	}
}

// TestSessionCapabilityEnforcement: the retired report dialects — a 'R'
// frame and raw records — are unknown frame types, and a truncated echo
// is refused.
func TestSessionCapabilityEnforcement(t *testing.T) {
	h := Hello{FirstUnit: 0, Units: 2}
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"truncated apply echo", []byte{FrameApply, 0}},
		{"'R' report frame", []byte{'R', 0, 0, 1, 1, 0, 1}},
		{"raw records", []byte{0, 0, 1, 1, 0, 1}},
	} {
		s := newSession(bytes.NewBuffer(c.raw), h)
		if _, err := s.ReadFrame(); err == nil {
			t.Errorf("%s: ReadFrame accepted %v", c.name, c.raw)
		}
		s.Release()
	}
}

// TestSessionWriteDeltaValidation: non-canonical deltas are refused
// before any bytes hit the wire.
func TestSessionWriteDeltaValidation(t *testing.T) {
	var out bytes.Buffer
	s := newSession(&out, Hello{FirstUnit: 0, Units: 4})
	cases := map[string][]Record{
		"empty":        {},
		"decreasing":   {{LocalUnit: 2, Value: 1}, {LocalUnit: 1, Value: 1}},
		"duplicate":    {{LocalUnit: 2, Value: 1}, {LocalUnit: 2, Value: 2}},
		"out of range": {{LocalUnit: 1, Value: 1}, {LocalUnit: 4, Value: 1}},
	}
	for name, recs := range cases {
		if err := s.WriteDelta(recs); err == nil {
			t.Errorf("%s: WriteDelta accepted %+v", name, recs)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: rejected delta leaked %d bytes onto the wire", name, out.Len())
		}
	}
}

// TestReadBatchFrameRejectsGarbage pins the non-canonical batch frame
// bodies ReadFrame must refuse.
func TestReadBatchFrameRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty count":    {0},
		"count over max": {5, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 9, 0, 1}, // 5 records for 4 units
		"truncated":      {2, 0, 0, 1},
		"decreasing":     {2, 1, 0, 1, 0, 0, 1},
		"duplicate unit": {2, 1, 0, 1, 1, 0, 1},
		"unit past end":  {1, 4, 0, 1},
		"eof":            {},
	}
	for name, raw := range cases {
		s := newSession(bytes.NewBuffer(append([]byte{FrameBatch}, raw...)), Hello{FirstUnit: 0, Units: 4})
		if _, err := s.ReadFrame(); err == nil {
			t.Errorf("%s: ReadFrame accepted a batch frame with body %v", name, raw)
		}
		s.Release()
	}
}

// TestBatchAckWireFormat pins the ack: OK plus the epsilon in big-endian
// deciwatts, the same 4 bytes on every session.
func TestBatchAckWireFormat(t *testing.T) {
	for _, h := range []Hello{
		{FirstUnit: 0, Units: 2},
		{FirstUnit: 0, Units: 1, Replicate: true},
	} {
		var out bytes.Buffer
		s := newSession(&out, h)
		if err := s.Ack(1.5); err != nil {
			t.Fatal(err)
		}
		if want := []byte{'O', 'K', 0, 15}; !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%+v: ack = %v, want %v", h, out.Bytes(), want)
		}
		s.Release()
	}
}

// TestConnectRejectsBadAck: Connect must fail cleanly on a truncated or
// corrupt ack.
func TestConnectRejectsBadAck(t *testing.T) {
	for name, ack := range map[string][]byte{
		"version-1 ack": {'O', 'K'},
		"truncated":     {'O', 'K', 0},
		"corrupt":       {'N', 'O', 0, 0},
	} {
		ac, sc := net.Pipe()
		go func() {
			io.ReadFull(sc, make([]byte, HelloSize))
			sc.Write(ack)
			sc.Close()
		}()
		if _, err := Connect(ac, Hello{FirstUnit: 0, Units: 2}); err == nil {
			t.Errorf("%s: Connect accepted ack %v", name, ack)
		}
		ac.Close()
	}
}

// TestSessionRelease: a released session's buffers return to the pool;
// double release is a no-op.
func TestSessionRelease(t *testing.T) {
	s := newSession(&bytes.Buffer{}, Hello{FirstUnit: 0, Units: 2})
	s.Release()
	if s.bufs != nil {
		t.Error("Release did not drop the buffers")
	}
	s.Release() // must not panic
}

// segReader hands out one scripted segment per Read call, whole — what a
// socket does with a frame that arrived in one TCP segment — and counts
// the calls.
type segReader struct {
	t     *testing.T
	segs  [][]byte
	calls int
}

func (r *segReader) Read(p []byte) (int, error) {
	if r.calls == len(r.segs) {
		return 0, io.EOF
	}
	seg := r.segs[r.calls]
	r.calls++
	if len(p) < len(seg) {
		r.t.Errorf("read %d offered %d bytes of room for a %d-byte segment", r.calls, len(p), len(seg))
	}
	return copy(p, seg), nil
}

func (r *segReader) Write(p []byte) (int, error) { return len(p), nil }

// TestReadFrameOneReadPerFrame pins the read window's point: a frame
// costs the Read calls its bytes arrived in, not one per field. (Before
// the window a batch frame took three — header, count, body — and an
// echo two.)
func TestReadFrameOneReadPerFrame(t *testing.T) {
	encode := func(h Hello, write func(s *Session)) []byte {
		var buf bytes.Buffer
		s := newSession(&buf, h)
		defer s.Release()
		write(s)
		return buf.Bytes()
	}
	batch := func(n int) func(s *Session) {
		return func(s *Session) {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{LocalUnit: uint8(i), Value: uint16(1000 + i)}
			}
			if err := s.WriteDelta(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	echo := func(s *Session) { s.WriteApplyEcho(time.Millisecond) }
	heartbeat := func(s *Session) { s.WriteHeartbeat() }
	node := Hello{Units: MaxNodeUnits}
	dual := Hello{Units: 2}
	concat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }
	b2 := encode(node, batch(2))

	cases := []struct {
		name   string
		h      Hello
		segs   [][]byte
		frames int
	}{
		{"batch of 1, 2 and 255", node, [][]byte{encode(node, batch(1)), b2, encode(node, batch(255))}, 3},
		{"heartbeat, echo", node, [][]byte{encode(node, heartbeat), encode(node, echo)}, 2},
		{"full report of a 2-unit node", dual, [][]byte{encode(dual, batch(2))}, 1},
		{"report and echo in one segment", dual, [][]byte{concat(encode(dual, batch(2)), encode(dual, echo))}, 2},
		{"batch and echo in one segment", node, [][]byte{concat(b2, encode(node, echo))}, 2},
		{"one frame over two segments", node, [][]byte{b2[:3], b2[3:]}, 1},
	}
	for _, c := range cases {
		r := &segReader{t: t, segs: c.segs}
		s := newSession(r, c.h)
		for i := 0; i < c.frames; i++ {
			if _, err := s.ReadFrame(); err != nil {
				t.Fatalf("%s: frame %d: %v", c.name, i, err)
			}
		}
		if r.calls != len(c.segs) {
			t.Errorf("%s: %d frames in %d segments took %d Read calls", c.name, c.frames, len(c.segs), r.calls)
		}
		s.Release()
	}
}
