package proto

import (
	"bytes"
	"io"
	"math"
	"net"
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
// Connect/Accept for every capability combination, and only batch
// sessions see the advertised epsilon.
func TestSessionNegotiation(t *testing.T) {
	cases := []Hello{
		{FirstUnit: 4, Units: 2},
		{FirstUnit: 4, Units: 2, ApplyEcho: true},
		{FirstUnit: 4, Units: 2, Batch: true},
		{FirstUnit: 4, Units: 2, ApplyEcho: true, Batch: true},
		{FirstUnit: 4, Units: 2, TraceCtx: true},
		{FirstUnit: 4, Units: 2, ApplyEcho: true, Batch: true, TraceCtx: true},
	}
	for _, h := range cases {
		agent, server := pipePair(t, h, 1.5)
		if got := server.Hello(); got != h {
			t.Errorf("server negotiated %+v, want %+v", got, h)
		}
		if got := agent.Hello(); got != h {
			t.Errorf("agent negotiated %+v, want %+v", got, h)
		}
		wantEps := power.Watts(0)
		if h.Batch {
			wantEps = 1.5
		}
		if got := agent.DeltaEpsilon(); got != wantEps {
			t.Errorf("%+v: agent epsilon = %v, want %v", h, got, wantEps)
		}
		agent.Release()
		server.Release()
	}
}

// TestSessionReportRoundTrip: a full report arrives as KindReport with
// one record per local unit, for the raw and the apply-echo framings.
func TestSessionReportRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{FirstUnit: 0, Units: 3},
		{FirstUnit: 0, Units: 3, ApplyEcho: true},
	} {
		agent, server := pipePair(t, h, 0)
		in := []power.Watts{110.5, 0, 87.3}
		go func() { agent.WriteReport(in) }()
		frame, err := server.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if frame.Kind != KindReport {
			t.Fatalf("%+v: frame kind = %v, want KindReport", h, frame.Kind)
		}
		if len(frame.Records) != h.Units {
			t.Fatalf("%+v: %d records, want %d", h, len(frame.Records), h.Units)
		}
		for i, rec := range frame.Records {
			if int(rec.LocalUnit) != i {
				t.Errorf("record %d addresses unit %d", i, rec.LocalUnit)
			}
			if got := FromDeciwatts(rec.Value); math.Abs(float64(got-in[i])) > 0.05 {
				t.Errorf("unit %d = %v, want ~%v", i, got, in[i])
			}
		}
	}
}

// TestSessionBatchDeltaRoundTrip: a sparse delta arrives as KindBatch
// carrying exactly the sent records; a full refresh over a batch session
// arrives as a batch frame covering every unit.
func TestSessionBatchDeltaRoundTrip(t *testing.T) {
	h := Hello{FirstUnit: 16, Units: 4, Batch: true}
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
	if len(frame.Records) != len(recs) {
		t.Fatalf("%d records, want %d", len(frame.Records), len(recs))
	}
	for i := range recs {
		if frame.Records[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, frame.Records[i], recs[i])
		}
	}

	go func() { agent.WriteReport([]power.Watts{1, 2, 3, 4}) }()
	frame, err = server.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Kind != KindBatch || len(frame.Records) != h.Units {
		t.Fatalf("full refresh = kind %v with %d records, want KindBatch with %d", frame.Kind, len(frame.Records), h.Units)
	}
}

// TestSessionHeartbeat: a heartbeat is one byte on the wire and arrives
// as KindHeartbeat with no records.
func TestSessionHeartbeat(t *testing.T) {
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 2, Batch: true}, 0)
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
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 2, ApplyEcho: true, Batch: true}, 0)
	go func() { agent.WriteApplyEcho(3 * time.Millisecond) }()
	frame, err := server.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Kind != KindApply || frame.ApplyDur != 3*time.Millisecond {
		t.Fatalf("frame = %+v, want a 3ms apply echo", frame)
	}
}

// TestSessionCapsRoundTrip: the downstream cap push is the classic raw
// record batch regardless of capabilities.
func TestSessionCapsRoundTrip(t *testing.T) {
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 3, Batch: true}, 0)
	in := []power.Watts{110, 42.5, 165}
	go func() { server.WriteCaps(in) }()
	out := make([]power.Watts, 3)
	if err := agent.ReadCaps(out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if math.Abs(float64(out[i]-in[i])) > 0.05 {
			t.Errorf("cap[%d] = %v, want ~%v", i, out[i], in[i])
		}
	}
}

// TestSessionCapsRoundTripTraceCtx: on a trace-context session the cap
// push carries the controller round, recovered by ReadCapsRound; without
// the capability the round prefix is absent and reads back as zero.
func TestSessionCapsRoundTripTraceCtx(t *testing.T) {
	agent, server := pipePair(t, Hello{FirstUnit: 0, Units: 3, TraceCtx: true}, 0)
	in := []power.Watts{110, 42.5, 165}
	go func() { server.WriteCapsRound(7, in) }()
	out := make([]power.Watts, 3)
	round, err := agent.ReadCapsRound(out)
	if err != nil {
		t.Fatal(err)
	}
	if round != 7 {
		t.Fatalf("round = %d, want 7", round)
	}
	for i := range in {
		if math.Abs(float64(out[i]-in[i])) > 0.05 {
			t.Errorf("cap[%d] = %v, want ~%v", i, out[i], in[i])
		}
	}

	// ReadCaps (round-discarding form) still works on a trace-context
	// session.
	go func() { server.WriteCapsRound(8, in) }()
	if err := agent.ReadCaps(out); err != nil {
		t.Fatal(err)
	}

	// A plain session ignores the round argument entirely.
	agent2, server2 := pipePair(t, Hello{FirstUnit: 0, Units: 3}, 0)
	go func() { server2.WriteCapsRound(99, in) }()
	round, err = agent2.ReadCapsRound(out)
	if err != nil {
		t.Fatal(err)
	}
	if round != 0 {
		t.Fatalf("plain session round = %d, want 0", round)
	}
}

// TestTraceCtxCapsWireFormat pins the trace-context cap batch bytes: an
// 8-byte big-endian round, then the raw records.
func TestTraceCtxCapsWireFormat(t *testing.T) {
	var out bytes.Buffer
	s := newSession(&out, Hello{FirstUnit: 0, Units: 2, TraceCtx: true})
	if err := s.WriteCapsRound(0x0102030405060708, []power.Watts{1, 2}); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		1, 2, 3, 4, 5, 6, 7, 8, // round, big-endian
		0, 0, 10, // unit 0: 1 W = 10 dW
		1, 0, 20, // unit 1: 2 W = 20 dW
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("trace-ctx cap batch = %v, want %v", out.Bytes(), want)
	}
}

// TestSessionCapabilityEnforcement: frame kinds a session did not
// negotiate are rejected on both the write and the read side.
func TestSessionCapabilityEnforcement(t *testing.T) {
	bare := newSession(&bytes.Buffer{}, Hello{FirstUnit: 0, Units: 2})
	if err := bare.WriteDelta([]Record{{LocalUnit: 0, Value: 1}}); err == nil {
		t.Error("WriteDelta accepted on a capability-free session")
	}
	if err := bare.WriteHeartbeat(); err == nil {
		t.Error("WriteHeartbeat accepted on a capability-free session")
	}
	if err := bare.WriteApplyEcho(time.Millisecond); err == nil {
		t.Error("WriteApplyEcho accepted on a capability-free session")
	}

	// An echo-only session must reject batch wire bytes, and a batch
	// session must reject raw report frames.
	echoRW := bytes.NewBuffer([]byte{FrameBatch, 1, 0, 0, 1})
	echo := newSession(echoRW, Hello{FirstUnit: 0, Units: 2, ApplyEcho: true})
	if _, err := echo.ReadFrame(); err == nil {
		t.Error("echo-only session accepted a batch frame")
	}
	hbRW := bytes.NewBuffer([]byte{FrameHeartbeat})
	echo2 := newSession(hbRW, Hello{FirstUnit: 0, Units: 2, ApplyEcho: true})
	if _, err := echo2.ReadFrame(); err == nil {
		t.Error("echo-only session accepted a heartbeat")
	}
	batchRW := bytes.NewBuffer([]byte{FrameReport, 0, 0, 1, 1, 0, 1})
	batch := newSession(batchRW, Hello{FirstUnit: 0, Units: 2, Batch: true})
	if _, err := batch.ReadFrame(); err == nil {
		t.Error("batch session accepted a raw report frame")
	}
}

// TestSessionWriteDeltaValidation: non-canonical deltas are refused
// before any bytes hit the wire.
func TestSessionWriteDeltaValidation(t *testing.T) {
	var out bytes.Buffer
	s := newSession(&out, Hello{FirstUnit: 0, Units: 4, Batch: true})
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

// TestReadBatchFrameRejectsGarbage pins the non-canonical encodings the
// parser must refuse.
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
		if _, err := ReadBatchFrame(bytes.NewReader(raw), 4, nil); err == nil {
			t.Errorf("%s: ReadBatchFrame accepted %v", name, raw)
		}
	}
}

// TestBatchAckWireFormat pins the extended ack: OK plus the epsilon in
// big-endian deciwatts, and the classic 2-byte ack for non-batch
// sessions.
func TestBatchAckWireFormat(t *testing.T) {
	var out bytes.Buffer
	s := newSession(&out, Hello{FirstUnit: 0, Units: 2, Batch: true})
	if err := s.Ack(1.5); err != nil {
		t.Fatal(err)
	}
	want := []byte{'O', 'K', 0, 15}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("batch ack = %v, want %v", out.Bytes(), want)
	}

	out.Reset()
	plain := newSession(&out, Hello{FirstUnit: 0, Units: 2, ApplyEcho: true})
	if err := plain.Ack(1.5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), []byte{'O', 'K'}) {
		t.Errorf("plain ack = %v, want OK", out.Bytes())
	}
}

// TestConnectRejectsBadAck: a batch Connect must fail cleanly on a
// truncated or corrupt extended ack.
func TestConnectRejectsBadAck(t *testing.T) {
	for name, ack := range map[string][]byte{
		"truncated": {'O', 'K', 0},
		"corrupt":   {'N', 'O', 0, 0},
	} {
		ac, sc := net.Pipe()
		go func() {
			io.ReadFull(sc, make([]byte, HelloV2Size))
			sc.Write(ack)
			sc.Close()
		}()
		if _, err := Connect(ac, Hello{FirstUnit: 0, Units: 2, Batch: true}); err == nil {
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
	report := func(s *Session) { s.WriteReport(make([]power.Watts, s.hello.Units)) }
	node := Hello{Units: MaxNodeUnits, Batch: true, ApplyEcho: true}
	classic := Hello{Units: 2, ApplyEcho: true}
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
		{"raw report", Hello{Units: 2}, [][]byte{encode(Hello{Units: 2}, report)}, 1},
		{"framed report", classic, [][]byte{encode(classic, report)}, 1},
		{"report and echo in one segment", classic, [][]byte{concat(encode(classic, report), encode(classic, echo))}, 2},
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
