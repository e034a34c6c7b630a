package daemon

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

// TestBadReadingDetection covers the sanitizer classes the wire format
// cannot deliver but the boundary must still reject.
func TestBadReadingDetection(t *testing.T) {
	ceiling := power.Watts(330)
	cases := []struct {
		v    power.Watts
		want bool
	}{
		{100, false},
		{0, false},
		{330, false},
		{-1, true},
		{331, true},
		{power.Watts(math.NaN()), true},
		{power.Watts(math.Inf(1)), true},
		{power.Watts(math.Inf(-1)), true},
	}
	for _, c := range cases {
		if got := badReading(c.v, ceiling); got != c.want {
			t.Errorf("badReading(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// newIdleReapServer builds a server that reaps a connection silent for
// 50 ms.
func newIdleReapServer(t *testing.T, units int) *Server {
	return newRigServer(t, units, newTestClock(), func(sc *ServerConfig) { sc.ReadIdleTimeout = 50 * time.Millisecond })
}

// TestReadDeadlineReapsSilentConnection verifies the server-side idle
// deadline: a handshaken connection that never reports is closed, counted
// as reaped, and its units are released for a replacement agent.
func TestReadDeadlineReapsSilentConnection(t *testing.T) {
	const units = 2
	srv := newIdleReapServer(t, units)

	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(server) }()
	if err := proto.WriteHello(client, proto.Hello{FirstUnit: 0, Units: units}); err != nil {
		t.Fatal(err)
	}
	if err := rawReadAck(client); err != nil {
		t.Fatal(err)
	}
	if got := srv.Connected(); got != 1 {
		t.Fatalf("Connected = %d, want 1", got)
	}

	// Stay silent. The deadline must fire and Handle must return a reap
	// error well before the test times out.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Handle returned nil for a reaped connection")
		}
		if !strings.Contains(err.Error(), "reaping idle agent") {
			t.Fatalf("Handle error = %v, want a reap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent connection was never reaped")
	}
	if got := srv.metrics.reaps.Value(); got != 1 {
		t.Fatalf("dps_conn_reaped_total = %d, want 1", got)
	}
	if got := srv.Connected(); got != 0 {
		t.Fatalf("Connected = %d after reap, want 0", got)
	}

	// The units are free again: a replacement claim succeeds.
	a2, _ := newTestAgent(t, 0, units)
	c2, s2 := net.Pipe()
	go srv.Handle(s2)
	if err := a2.Handshake(c2); err != nil {
		t.Fatalf("replacement agent rejected after reap: %v", err)
	}
	c2.Close()
}

// TestReadDeadlineStillReaps: bytes parked in a session's read window do
// not hide an idle peer. An agent that sends a heartbeat and the first
// half of a batch frame in one write, then goes silent, is reaped on the
// per-frame deadline exactly like one that sent nothing.
func TestReadDeadlineStillReaps(t *testing.T) {
	const units = 2
	srv := newIdleReapServer(t, units)
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(server) }()
	if _, err := proto.Connect(client, proto.Hello{FirstUnit: 0, Units: units}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte{proto.FrameHeartbeat, proto.FrameBatch, 2, 0, 0x03}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "reaping idle agent") {
			t.Fatalf("Handle error = %v, want a reap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a connection idle inside a frame was never reaped")
	}
	if got := srv.metrics.ingestHeartbeats.Value(); got != 1 {
		t.Errorf("heartbeats ingested = %d, want the 1 that arrived whole", got)
	}
	if got := srv.metrics.reaps.Value(); got != 1 {
		t.Errorf("dps_conn_reaped_total = %d, want 1", got)
	}
}

// TestReadDeadlineReapsSilentHandshake verifies the deadline also guards
// the pre-handshake read: a connection that never says hello cannot hold
// a server goroutine forever.
func TestReadDeadlineReapsSilentHandshake(t *testing.T) {
	const units = 2
	srv := newIdleReapServer(t, units)
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(server) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Handle returned nil for a silent handshake")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent handshake was never reaped")
	}
}

// newTestAgentDevices builds n noiseless simulated devices.
func newTestAgentDevices(t testing.TB, n int) []rapl.Device {
	t.Helper()
	devs := make([]rapl.Device, n)
	for i := range devs {
		cfg := rapl.DefaultSimConfig()
		cfg.NoiseStdDev = 0
		cfg.Seed = int64(i + 1)
		d, err := rapl.NewSimDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	return devs
}

// TestJitteredBackoff pins the equal-jitter schedule with a stubbed rand
// source: sleep ∈ [backoff/2, backoff), exact at the stub's values.
func TestJitteredBackoff(t *testing.T) {
	next := 0.0
	a, err := NewAgent(AgentConfig{
		FirstUnit:       0,
		Devices:         newTestAgentDevices(t, 1),
		Interval:        time.Second,
		ReconnectJitter: func() float64 { return next },
	})
	if err != nil {
		t.Fatal(err)
	}

	backoff := 800 * time.Millisecond
	next = 0
	if got := a.jitteredBackoff(backoff); got != 400*time.Millisecond {
		t.Fatalf("jitter 0: sleep = %v, want 400ms", got)
	}
	next = 0.5
	if got := a.jitteredBackoff(backoff); got != 600*time.Millisecond {
		t.Fatalf("jitter 0.5: sleep = %v, want 600ms", got)
	}
	next = 0.999
	got := a.jitteredBackoff(backoff)
	if got < 400*time.Millisecond || got >= backoff {
		t.Fatalf("jitter 0.999: sleep = %v, want in [400ms, 800ms)", got)
	}

	// Two agents with different draws sleep differently — the property
	// that breaks the thundering herd.
	b, err := NewAgent(AgentConfig{
		FirstUnit:       0,
		Devices:         newTestAgentDevices(t, 1),
		Interval:        time.Second,
		ReconnectJitter: func() float64 { return 0.25 },
	})
	if err != nil {
		t.Fatal(err)
	}
	next = 0.75
	if a.jitteredBackoff(backoff) == b.jitteredBackoff(backoff) {
		t.Fatal("distinct jitter draws produced identical sleeps")
	}

	// The default source stays inside the envelope too.
	c, err := NewAgent(AgentConfig{
		FirstUnit: 0,
		Devices:   newTestAgentDevices(t, 1),
		Interval:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got := c.jitteredBackoff(backoff)
		if got < 400*time.Millisecond || got >= backoff {
			t.Fatalf("default jitter draw %d: sleep = %v outside [400ms, 800ms)", i, got)
		}
	}
}
