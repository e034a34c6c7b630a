package daemon

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

// TestDecideSamplerSteadyStateZeroAlloc extends the core hot-path
// allocation gate to the self-monitoring deployment shape: with the
// watchdog and series sampler wired into the daemon (watcher built,
// tracer attached, audits fed every round, registry scraped between
// rounds), the manager's warm decision round must still allocate nothing.
// The sampler and auditor run beside the decision path, never inside it —
// this test is that claim's regression gate.
func TestDecideSamplerSteadyStateZeroAlloc(t *testing.T) {
	const units = 128
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager:       mgr,
		Units:         units,
		Interval:      time.Second,
		SeriesEnabled: true,
		WatchEnabled:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	srv.now = func() time.Time { return now }

	rng := rand.New(rand.NewSource(1))
	readings := make(power.Vector, units)
	for u := range readings {
		readings[u] = power.Watts(40 + rng.Float64()*120)
	}
	// Warm through the full daemon round (metrics, flight recorder,
	// audits) plus sampler scrapes, so every self-monitoring structure has
	// grown to steady state.
	for i := 0; i < 30; i++ {
		readings[i%units] += power.Watts(rng.NormFloat64() * 2)
		setReadings(srv, readings)
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		srv.SampleOnce()
		now = now.Add(time.Second)
	}

	snap := core.Snapshot{Power: readings, Interval: 1}
	allocs := testing.AllocsPerRun(100, func() {
		readings[0] += 0.01
		mgr.DecideStats(snap)
	})
	if allocs != 0 {
		t.Errorf("watchdog-attached steady-state DecideStats allocated %.1f times per round, want 0", allocs)
	}
}

// ingestScriptConn is a synchronous net.Conn for the ingest alloc gate:
// reads replay an in-memory frame script, writes are discarded. It lets
// the test drive serveFrame on the calling goroutine, with no pipe or
// scheduler noise between the measurement and the path being measured.
type ingestScriptConn struct {
	r *bytes.Reader
}

func (c *ingestScriptConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *ingestScriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *ingestScriptConn) Close() error                     { return nil }
func (c *ingestScriptConn) LocalAddr() net.Addr              { return nil }
func (c *ingestScriptConn) RemoteAddr() net.Addr             { return nil }
func (c *ingestScriptConn) SetDeadline(time.Time) error      { return nil }
func (c *ingestScriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *ingestScriptConn) SetWriteDeadline(time.Time) error { return nil }

// scriptedServerConn accepts h's handshake over a scripted connection and
// returns the server half, unregistered, with the connection whose read
// script the caller sets.
func scriptedServerConn(t *testing.T, h proto.Hello) (*serverConn, *ingestScriptConn) {
	t.Helper()
	var hs bytes.Buffer
	if err := proto.WriteHello(&hs, h); err != nil {
		t.Fatal(err)
	}
	conn := &ingestScriptConn{r: bytes.NewReader(hs.Bytes())}
	sess, err := proto.Accept(conn)
	if err != nil {
		t.Fatal(err)
	}
	return &serverConn{conn: conn, sess: sess, hello: sess.Hello()}, conn
}

// TestIngestSteadyStateZeroAlloc is the batched-ingest allocation gate:
// once a session is warm, receiving and landing a full batch, a
// sparse delta, and a heartbeat must not allocate — the read buffers and
// record scratch are session-owned and pooled, and the staleness-clock
// walk is in-place. Health tracking is on so the gate covers the
// clock-refresh path, not just the value stores.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	const units = 128
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager:    mgr,
		Units:      units,
		Interval:   time.Second,
		StaleAfter: time.Minute,
		DeadAfter:  2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc, conn := scriptedServerConn(t, proto.Hello{FirstUnit: 0, Units: units})
	defer sc.sess.Release()

	// The frame script: one full batch, one sparse delta, one heartbeat —
	// the three shapes a steady-state delta session produces.
	var fb bytes.Buffer
	full := make([]proto.Record, units)
	for u := range full {
		full[u] = proto.Record{LocalUnit: uint8(u), Value: uint16(900 + u)}
	}
	fb.Write(rawBatchFrame(full))
	fb.Write(rawBatchFrame([]proto.Record{{LocalUnit: 3, Value: 850}, {LocalUnit: 77, Value: 1410}}))
	fb.WriteByte(proto.FrameHeartbeat)
	script := fb.Bytes()
	const frames = 3

	serve := func() {
		conn.r.Reset(script)
		for i := 0; i < frames; i++ {
			if err := srv.serveFrame(sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve() // warm the session's read scratch through every frame shape

	if allocs := testing.AllocsPerRun(100, serve); allocs != 0 {
		t.Errorf("warm batch ingest allocated %.1f times per %d-frame script, want 0", allocs, frames)
	}
}

// TestAgentRoundSteadyStateZeroAlloc is the agent half of the ingest gate:
// a warm session's round — ReportOnce through the three shapes a delta
// session sends (sparse delta, heartbeat, full refresh) and ReceiveCaps
// with its apply echo — must not allocate. Every frame is encoded in the
// session's own write buffer; a stack array sliced into the connection's
// Write escapes, which cost one allocation per heartbeat and per echo.
func TestAgentRoundSteadyStateZeroAlloc(t *testing.T) {
	const units = 4
	devs := newTestAgentDevices(t, units)
	a, err := NewAgent(AgentConfig{
		Devices: devs, Interval: time.Second,
		Batch: true, DeltaEpsilon: 1, RefreshEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var down bytes.Buffer
	down.Write([]byte{'O', 'K', 0, 10})
	ackLen := down.Len()
	caps := make([]byte, 8+units*proto.RecordSize)
	for u := 0; u < units; u++ {
		proto.PutRecord(caps[8+u*proto.RecordSize:], proto.Record{LocalUnit: uint8(u), Value: 1650})
	}
	const frames = 3
	for i := 0; i < frames; i++ {
		down.Write(caps)
	}
	conn := &ingestScriptConn{r: bytes.NewReader(down.Bytes()[:ackLen])}
	if err := a.Handshake(conn); err != nil {
		t.Fatal(err)
	}
	defer a.sess.Release()

	// With a full refresh every third report the cycle is: refresh (full
	// batch), unit 0 moves (sparse delta), nothing moves (heartbeat).
	load := power.Watts(60)
	cycle := func() {
		conn.r.Reset(down.Bytes()[ackLen:])
		for i := 0; i < frames; i++ {
			if i == 1 {
				load = 150 - load
				devs[0].(*rapl.SimDevice).SetLoad(load)
			}
			for _, d := range devs {
				d.(*rapl.SimDevice).Advance(1)
			}
			if err := a.ReportOnce(1); err != nil {
				t.Fatal(err)
			}
			if err := a.ReceiveCaps(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // the first report of a session is full whatever moved
	heartbeats, suppressed := a.am.heartbeats.Value(), a.am.suppressed.Value()
	cycle()
	if hb, sup := a.am.heartbeats.Value()-heartbeats, a.am.suppressed.Value()-suppressed; hb != 1 || sup != 2*units-1 {
		t.Fatalf("a cycle sent %d heartbeats and withheld %d readings, want 1 and %d: not the full/sparse/heartbeat script", hb, sup, 2*units-1)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm agent rounds allocated %.1f times per %d-round cycle, want 0", allocs, frames)
	}
}
