package daemon

import (
	"math"
	"net"
	"testing"
	"time"

	"dps/internal/blackbox"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// counterValue scrapes one unlabeled counter from a registry.
func counterValue(reg *telemetry.Registry, name string) float64 {
	var v float64
	reg.Each(func(s telemetry.Sample) {
		if s.Name == name && s.Labels == "" {
			v = s.Value
		}
	})
	return v
}

// TestServerBlackboxPersistsRounds drives decision rounds on a
// blackbox-enabled server and decodes the on-disk ring back, proving the
// persisted record matches what the controller decided — including
// across a Close/reopen process generation.
func TestServerBlackboxPersistsRounds(t *testing.T) {
	dir := t.TempDir()
	units := 3
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager: mgr, Units: units, Interval: time.Second,
		BlackboxPath: dir, BlackboxRounds: 64,
	})
	if err != nil {
		t.Fatal(err)
	}

	const roundsRun = 5
	var lastCaps power.Vector
	for i := 0; i < roundsRun; i++ {
		caps, err := srv.DecideOnce(1)
		if err != nil {
			t.Fatal(err)
		}
		lastCaps = caps.Clone()
	}
	if got := counterValue(srv.Telemetry(), "dps_blackbox_bytes_total"); got <= 0 {
		t.Errorf("dps_blackbox_bytes_total = %v, want > 0", got)
	}
	if got := counterValue(srv.Telemetry(), "dps_blackbox_dropped_rounds_total"); got != 0 {
		t.Errorf("dps_blackbox_dropped_rounds_total = %v, want 0", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	rounds, err := blackbox.Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != roundsRun {
		t.Fatalf("dump recovered %d rounds, want %d", len(rounds), roundsRun)
	}
	for i, r := range rounds {
		if r.Round != uint64(i+1) {
			t.Errorf("record %d has round %d, want %d", i, r.Round, i+1)
		}
		if len(r.Units) != units {
			t.Errorf("round %d carries %d units, want %d", r.Round, len(r.Units), units)
		}
		if r.BudgetW != float64(testBudget(units).Total) {
			t.Errorf("round %d budget %v, want %v", r.Round, r.BudgetW, float64(testBudget(units).Total))
		}
	}
	last := rounds[len(rounds)-1]
	for u := range lastCaps {
		if want := proto.ToDeciwatts(lastCaps[u]); last.Units[u].CapDW != want {
			t.Errorf("unit %d persisted cap %d dW, decided %d dW", u, last.Units[u].CapDW, want)
		}
	}

	// A second server over the same directory starts a new segment and
	// keeps the previous generation's rounds in the ring.
	mgr2, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(ServerConfig{
		Manager: mgr2, Units: units, Interval: time.Second,
		BlackboxPath: dir, BlackboxRounds: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	rounds, err = blackbox.Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != roundsRun+1 {
		t.Fatalf("after restart dump recovered %d rounds, want %d", len(rounds), roundsRun+1)
	}
}

// TestEndToEndTraceCtx proves the wire correlation path: every
// agent's cap batches carry the controller round, the agent's cap_apply
// span is tagged with it, and the agent's round cache follows the wire —
// the anchor the fleet-wide trace merge aligns clocks with.
func TestEndToEndTraceCtx(t *testing.T) {
	srv := newTestServer(t, 2)
	agent, sims := newTestAgent(t, 0, 2)
	agent.Trace().SetEnabled(true)

	client, server := net.Pipe()
	go srv.Handle(server)
	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}

	for _, d := range sims {
		d.SetLoad(120)
		d.Advance(1)
	}
	if err := agent.ReportOnce(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		r := srv.Readings()
		if math.Abs(float64(r[0]-120)) < 0.06 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("report never landed: %v", r)
		}
		time.Sleep(time.Millisecond)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := srv.DecideOnce(1)
		errc <- err
	}()
	if err := agent.ReceiveCaps(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	if got := agent.lastRound.Load(); got != 1 {
		t.Fatalf("agent lastRound = %d, want 1 (round prefix lost?)", got)
	}
	var sawCapApply bool
	for _, sp := range agent.Trace().Last(0) {
		if sp.Name == trace.SpanCapApply {
			sawCapApply = true
			if sp.Trace != 1 {
				t.Errorf("cap_apply span trace = %d, want round 1", sp.Trace)
			}
		}
	}
	if !sawCapApply {
		t.Error("agent recorded no cap_apply span")
	}
	if got := counterValue(agent.Telemetry(), "dps_agent_trace_spans_total"); got < 1 {
		t.Errorf("dps_agent_trace_spans_total = %v, want >= 1", got)
	}
	client.Close()
}
