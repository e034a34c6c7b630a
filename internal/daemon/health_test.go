package daemon

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

// newHealthServer builds a server with health tracking enabled and a
// stubbed, manually advanced clock.
func newHealthServer(t *testing.T, units int, stale, dead time.Duration) (*Server, *time.Time) {
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager:    mgr,
		Units:      units,
		Interval:   time.Second,
		StaleAfter: stale,
		DeadAfter:  dead,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	srv.now = func() time.Time { return now }
	srv.ResetHealthClocks()
	return srv, &now
}

// handshakeRaw performs the protocol handshake over a pipe, returning the
// client side and a drain goroutine for cap pushes (net.Pipe writes are
// synchronous, so DecideOnce needs a live reader).
func handshakeRaw(t *testing.T, srv *Server, first power.UnitID, units int) (net.Conn, chan error) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(server) }()
	if err := proto.WriteHello(client, proto.Hello{FirstUnit: first, Units: units}); err != nil {
		t.Fatal(err)
	}
	if err := rawReadAck(client); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]power.Watts, units)
		for {
			if err := rawReadCaps(client, buf); err != nil {
				return
			}
		}
	}()
	return client, done
}

// report sends one reading batch and waits until it lands in the server's
// reading table (the conn goroutine is asynchronous).
func report(t *testing.T, srv *Server, conn net.Conn, first int, vals power.Vector, wantAccepted bool) {
	t.Helper()
	before := srv.metrics.badReadings.Value()
	if err := rawWriteReport(conn, vals); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if wantAccepted {
			r := srv.Readings()
			ok := true
			for i, v := range vals {
				if math.Abs(float64(r[first+i]-v)) > 0.06 {
					ok = false
					break
				}
			}
			if ok {
				return
			}
		} else if srv.metrics.badReadings.Value() > before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("report %v never registered (accepted=%v)", vals, wantAccepted)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthLifecycle walks one unit range through the whole state
// machine: fresh → stale → dead → fresh again on re-handshake, checking
// delivered caps, status JSON, and the exported gauges at each stage.
func TestHealthLifecycle(t *testing.T) {
	const units = 4
	srv, now := newHealthServer(t, units, 3*time.Second, 10*time.Second)
	conn, done := handshakeRaw(t, srv, 0, units)

	readings := power.Vector{120, 30, 90, 140}
	report(t, srv, conn, 0, readings, true)
	caps, err := srv.DecideOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Snapshot(); st.StaleUnits != 0 || st.DeadUnits != 0 {
		t.Fatalf("healthy round reports stale=%d dead=%d", st.StaleUnits, st.DeadUnits)
	}
	pinned := caps.Clone()

	// Silence past StaleAfter: everything the agent owns goes stale and
	// caps freeze at the last delivered values.
	*now = now.Add(5 * time.Second)
	capsStale, err := srv.DecideOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	for u := range capsStale {
		if capsStale[u] != pinned[u] {
			t.Fatalf("stale unit %d cap moved %v -> %v", u, pinned[u], capsStale[u])
		}
	}
	st := srv.Snapshot()
	if st.StaleUnits != units || st.DeadUnits != 0 {
		t.Fatalf("stale round reports stale=%d dead=%d", st.StaleUnits, st.DeadUnits)
	}
	if st.Health[0] != "stale" {
		t.Fatalf("status health[0] = %q, want stale", st.Health[0])
	}
	if got := srv.metrics.staleUnits.Value(); got != units {
		t.Fatalf("dps_stale_units = %v, want %d", got, units)
	}

	// Silence past DeadAfter: dead, still pinned, budget still reserved.
	*now = now.Add(10 * time.Second)
	capsDead, err := srv.DecideOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	for u := range capsDead {
		if capsDead[u] != pinned[u] {
			t.Fatalf("dead unit %d cap moved %v -> %v", u, pinned[u], capsDead[u])
		}
	}
	if st := srv.Snapshot(); st.DeadUnits != units {
		t.Fatalf("dead round reports dead=%d", st.DeadUnits)
	}
	if got := srv.metrics.deadUnits.Value(); got != units {
		t.Fatalf("dps_dead_units = %v, want %d", got, units)
	}
	freshToStale := srv.metrics.transitions[int(core.HealthFresh)*3+int(core.HealthStale)].Value()
	staleToDead := srv.metrics.transitions[int(core.HealthStale)*3+int(core.HealthDead)].Value()
	if freshToStale != units || staleToDead != units {
		t.Fatalf("transition counters fresh->stale=%d stale->dead=%d, want %d each", freshToStale, staleToDead, units)
	}

	// The flight recorder saw the degraded rounds.
	recs := srv.FlightRecorder().Last(1, -1)
	if len(recs) != 1 || recs[0].DeadUnits != units {
		t.Fatalf("flight record dead units = %+v", recs)
	}
	if recs[0].Units[0].Health != "dead" {
		t.Fatalf("flight record unit health = %q", recs[0].Units[0].Health)
	}

	// Recovery: drop the dead session, re-handshake, report. The register
	// alone restamps the clock, so the unit is fresh by the next round.
	conn.Close()
	<-done
	conn2, _ := handshakeRaw(t, srv, 0, units)
	defer conn2.Close()
	report(t, srv, conn2, 0, power.Vector{15, 15, 15, 15}, true)
	capsBack, err := srv.DecideOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Snapshot(); st.StaleUnits != 0 || st.DeadUnits != 0 {
		t.Fatalf("recovered round reports stale=%d dead=%d", st.StaleUnits, st.DeadUnits)
	}
	moved := false
	for u := range capsBack {
		if capsBack[u] != pinned[u] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("caps still pinned one round after recovery")
	}
	deadToFresh := srv.metrics.transitions[int(core.HealthDead)*3+int(core.HealthFresh)].Value()
	if deadToFresh != units {
		t.Fatalf("dead->fresh transitions = %d, want %d", deadToFresh, units)
	}
}

// TestSanitizerRejectsGarbageReadings verifies the server boundary: a
// reading above the ceiling never reaches the reading table, is counted,
// and does not refresh the staleness clock — so a garbage-reporting agent
// quarantines itself into the stale state while a well-behaved one stays
// fresh.
func TestSanitizerRejectsGarbageReadings(t *testing.T) {
	const units = 2
	srv, now := newHealthServer(t, units, 3*time.Second, 10*time.Second)
	conn, _ := handshakeRaw(t, srv, 0, units)
	defer conn.Close()

	report(t, srv, conn, 0, power.Vector{100, 100}, true)
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}

	// Unit 1 starts reporting garbage (over the 2×UnitMax=330 W ceiling);
	// unit 0 keeps reporting sanely. The wire can't carry NaN/Inf, so the
	// ceiling is the reachable rejection path end-to-end.
	for i := 0; i < 3; i++ {
		*now = now.Add(2 * time.Second)
		report(t, srv, conn, 0, power.Vector{100, 5000}, false)
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	r := srv.Readings()
	if r[1] > 330 {
		t.Fatalf("garbage reading %v entered the reading table", r[1])
	}
	if got := srv.metrics.badReadings.Value(); got < 3 {
		t.Fatalf("dps_server_bad_readings_total = %d, want >= 3", got)
	}
	st := srv.Snapshot()
	if st.Health[0] != "fresh" {
		t.Fatalf("well-behaved unit went %q", st.Health[0])
	}
	if st.Health[1] == "fresh" {
		t.Fatal("garbage-reporting unit stayed fresh; quarantine failed")
	}
}

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
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager:         mgr,
		Units:           units,
		Interval:        time.Second,
		ReadIdleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
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
