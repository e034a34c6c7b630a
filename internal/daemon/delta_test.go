package daemon

import (
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

// newBatchTestAgent builds an agent with the batch/delta capability on.
func newBatchTestAgent(t *testing.T, first power.UnitID, n int, eps power.Watts, refresh int) (*Agent, []*rapl.SimDevice) {
	t.Helper()
	devs := make([]rapl.Device, n)
	sims := make([]*rapl.SimDevice, n)
	for i := range devs {
		cfg := rapl.DefaultSimConfig()
		cfg.NoiseStdDev = 0
		cfg.Seed = int64(i + 1)
		d, err := rapl.NewSimDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		sims[i] = d
	}
	a, err := NewAgent(AgentConfig{
		FirstUnit:    first,
		Devices:      devs,
		Interval:     100 * time.Millisecond,
		Batch:        true,
		DeltaEpsilon: eps,
		RefreshEvery: refresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, sims
}

// waitReadings polls until the server's reading table matches want within
// tol per unit (the conn goroutine ingests asynchronously).
func waitReadings(t *testing.T, srv *Server, want []float64, tol float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		r := srv.Readings()
		ok := len(r) == len(want)
		for u := range want {
			if ok && math.Abs(float64(r[u])-want[u]) > tol {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("readings %v never reached %v", r, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchDeltaEndToEnd drives the batch/delta data plane over a pipe:
// a batch handshake, a full first report, epsilon suppression collapsing
// a quiet interval to a heartbeat, and a sparse delta when one unit
// moves — with the server's reading table tracking throughout.
func TestBatchDeltaEndToEnd(t *testing.T) {
	srv := newTestServer(t, 3)
	agent, sims := newBatchTestAgent(t, 0, 3, 1.0, -1)

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(server) }()
	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}

	load := func(u int, w power.Watts) {
		sims[u].SetLoad(w)
		sims[u].Advance(1)
	}

	// First report: always the complete vector.
	for u := range sims {
		load(u, 120)
	}
	if err := agent.ReportOnce(1); err != nil {
		t.Fatal(err)
	}
	waitReadings(t, srv, []float64{120, 120, 120}, 0.06)
	if got := srv.metrics.ingestBatches.Value(); got != 1 {
		t.Fatalf("ingest batches = %d, want 1", got)
	}
	if got := srv.metrics.ingestRecords.Value(); got != 3 {
		t.Fatalf("ingest records = %d, want 3", got)
	}

	// Same load again: every unit within epsilon -> one heartbeat, no
	// records, readings stand.
	for u := range sims {
		load(u, 120)
	}
	if err := agent.ReportOnce(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.ingestHeartbeats.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	if got := agent.am.heartbeats.Value(); got != 1 {
		t.Fatalf("agent heartbeats = %d, want 1", got)
	}
	if got := agent.am.suppressed.Value(); got != 3 {
		t.Fatalf("agent suppressed readings = %d, want 3", got)
	}
	waitReadings(t, srv, []float64{120, 120, 120}, 0.06)

	// One unit jumps past epsilon: a sparse delta carrying only that unit.
	load(0, 140)
	load(1, 120)
	load(2, 120)
	if err := agent.ReportOnce(1); err != nil {
		t.Fatal(err)
	}
	waitReadings(t, srv, []float64{140, 120, 120}, 0.06)
	if got := srv.metrics.ingestRecords.Value(); got != 4 {
		t.Fatalf("ingest records = %d, want 4 (3 full + 1 delta)", got)
	}
	if got := srv.metrics.ingestBatches.Value(); got != 2 {
		t.Fatalf("ingest batches = %d, want 2", got)
	}

	client.Close()
	<-done
}

// TestBatchRefreshEvery pins the periodic full-refresh override: with
// RefreshEvery=2 a quiet agent still sends the complete vector every
// second report instead of heartbeating forever.
func TestBatchRefreshEvery(t *testing.T) {
	srv := newTestServer(t, 2)
	agent, sims := newBatchTestAgent(t, 0, 2, 5.0, 2)

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(server) }()
	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 5; round++ {
		for _, d := range sims {
			d.SetLoad(120)
			d.Advance(1)
		}
		if err := agent.ReportOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	// Rounds: 0 full, 1 heartbeat, 2 full (refresh), 3 heartbeat, 4 full.
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.ingestBatches.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("full refreshes = %d, want 3", srv.metrics.ingestBatches.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if got := agent.am.heartbeats.Value(); got != 2 {
		t.Fatalf("agent heartbeats = %d, want 2", got)
	}

	client.Close()
	<-done
}

// TestLegacyDialectsRefused pins the one upstream dialect against a live
// server: a version-1 hello, a hello carrying the retired batch bit, and
// a 'R' report frame or raw records on an established session are each
// refused, with the connection closed and no unit left claimed.
func TestLegacyDialectsRefused(t *testing.T) {
	srv := newTestServer(t, 2)
	hello := func(version, flags byte) []byte {
		return []byte{'D', 'P', 'S', '1', version, 0, 0, 2, flags}
	}
	records := []byte{0, 0x04, 0x50, 1, 0x04, 0x50} // units 0 and 1 at 110.4 W
	for _, c := range []struct {
		name         string
		hello, after []byte // after is sent once the hello is acknowledged
	}{
		{"version-1 hello", hello(1, 0)[:8], nil},
		{"retired batch bit", hello(proto.Version, 1<<1), nil},
		{"'R' report frame", hello(proto.Version, 0), append([]byte{'R'}, records...)},
		{"raw records", hello(proto.Version, 0), records},
	} {
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(server) }()
		if _, err := client.Write(c.hello); err != nil {
			t.Fatalf("%s: writing the hello: %v", c.name, err)
		}
		if c.after != nil {
			if err := rawReadAck(client); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := client.Write(c.after); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: Handle returned nil", c.name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: the server is still serving the connection", c.name)
		}
		if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("%s: connection not closed after the refusal (read: %v)", c.name, err)
		}
		if got := srv.Connected(); got != 0 {
			t.Errorf("%s: Connected = %d after the refusal, want 0", c.name, got)
		}
		client.Close()
	}

	// No unit was left claimed: a current agent takes the whole range.
	agent, _ := newTestAgent(t, 0, 2)
	client, server := net.Pipe()
	defer client.Close()
	go srv.Handle(server)
	if err := agent.Handshake(client); err != nil {
		t.Fatalf("agent refused after the legacy sessions: %v", err)
	}
}

// TestBatchHealthClock pins the heartbeat-vs-health contract on the
// batch plane: heartbeats from a quiet connection keep its units fresh
// well past DeadAfter (quiet is not dead — the agent is alive and
// asserting "unchanged"), while a genuinely silent batch connection
// walks the same fresh → stale → dead decay as a per-reading one.
func TestBatchHealthClock(t *testing.T) {
	const units = 3
	srv, now := newHealthServer(t, units, 3*time.Second, 10*time.Second)
	agent, sims := newBatchTestAgent(t, 0, units, 1.0, -1)

	client, server := net.Pipe()
	go srv.Handle(server)
	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}
	// Drain cap pushes: net.Pipe writes are synchronous, so DecideOnce
	// would otherwise block on its push.
	go func() {
		for agent.ReceiveCaps() == nil {
		}
	}()
	t.Cleanup(func() { client.Close() })

	load := func(w power.Watts) {
		for _, d := range sims {
			d.SetLoad(w)
			d.Advance(1)
		}
	}

	// Seed the reading table with a full first report (90 W per unit is
	// comfortably under the per-unit budget, so pushed caps never clamp
	// the draw and later intervals really are unchanged).
	load(90)
	if err := agent.ReportOnce(1); err != nil {
		t.Fatal(err)
	}
	waitReadings(t, srv, []float64{90, 90, 90}, 0.06)

	// Heartbeat through 10 s of (stubbed) wall clock — past DeadAfter.
	// Every round must classify all units fresh.
	for i := 0; i < 5; i++ {
		*now = now.Add(2 * time.Second)
		load(90) // unchanged within epsilon → heartbeat
		if err := agent.ReportOnce(1); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for srv.metrics.ingestHeartbeats.Value() < uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("heartbeat %d never reached the server", i+1)
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		if s := srv.Snapshot(); s.StaleUnits != 0 || s.DeadUnits != 0 {
			t.Fatalf("after heartbeat %d (%.0fs elapsed): %d stale / %d dead, want all fresh (%v)",
				i+1, float64((i+1)*2), s.StaleUnits, s.DeadUnits, s.Health)
		}
	}
	if hb := agent.am.heartbeats.Value(); hb != 5 {
		t.Fatalf("agent heartbeats = %d, want 5", hb)
	}

	// Real silence now: no frames at all. The same clocks must decay on
	// schedule — heartbeats bought freshness, not immortality.
	*now = now.Add(4 * time.Second)
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
	if s := srv.Snapshot(); s.StaleUnits != units {
		t.Fatalf("after 4s of silence: %d stale units, want %d (%v)", s.StaleUnits, units, s.Health)
	}
	*now = now.Add(7 * time.Second)
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
	if s := srv.Snapshot(); s.DeadUnits != units {
		t.Fatalf("after 11s of silence: %d dead units, want %d (%v)", s.DeadUnits, units, s.Health)
	}
}
