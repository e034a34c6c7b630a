package daemon

import (
	"net"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/rapl"
)

// newSparseHarness is newDeltaHarness with the controller's refresh
// period and the server's delta band under test control: a batch+delta
// agent over scripted devices, against a DPS manager that skips settled
// units (refresh 0, the default) or never does (refresh 1, the reference).
func newSparseHarness(t *testing.T, units, refresh int, eps power.Watts) *deltaHarness {
	t.Helper()
	ccfg := core.DefaultConfig(units, testBudget(units))
	ccfg.SparseRefreshEvery = refresh
	mgr, err := core.NewDPS(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second, DeltaEpsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*scriptDevice, units)
	devices := make([]rapl.Device, units)
	for i := range devs {
		devs[i] = &scriptDevice{}
		devices[i] = devs[i]
	}
	agent, err := NewAgent(AgentConfig{
		FirstUnit:    0,
		Devices:      devices,
		Interval:     time.Second,
		Batch:        true,
		RefreshEvery: -1, // pure delta: suppression is what builds the sparse rounds
	})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.Handle(server)
	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}
	go func() {
		for agent.ReceiveCaps() == nil {
		}
	}()
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return &deltaHarness{srv: srv, agent: agent, devs: devs}
}

// TestSparseRoundsDaemonEquivalence drives the full deployed pipeline —
// delta agent, batched ingest, dirty-mask snapshot assembly, sparse
// decision rounds — against an identical pipeline feeding the reference
// controller that processes every unit every round. Caps must stay
// bitwise identical every round, and the sparse side must demonstrably
// skip settled units (the masks arriving from ingest, not the compare
// fallback, sized the rounds).
func TestSparseRoundsDaemonEquivalence(t *testing.T) {
	const (
		units = 32
		steps = 160
		eps   = power.Watts(0.5)
	)
	dense := newSparseHarness(t, units, 1, eps)
	sparse := newSparseHarness(t, units, 0, eps)

	waitFrames := func(h *deltaHarness, n uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for h.frames() < n {
			if time.Now().After(deadline) {
				t.Fatalf("server ingested %d frames, want %d", h.frames(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	for step := 0; step < steps; step++ {
		for _, h := range []*deltaHarness{dense, sparse} {
			for u, d := range h.devs {
				if u < 8 {
					// The dirty block: an in-band oscillation that reports
					// every interval.
					d.advance(power.Watts(92 + (step*13+u*7)%5))
				} else {
					// Quiet majority: constant draw, suppressed after the
					// first report, settling on the sparse side.
					d.advance(power.Watts(40 + u))
				}
			}
			if err := h.agent.ReportOnce(1); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			waitFrames(h, uint64(step+1))
		}
		capsD, err := dense.srv.DecideOnce(1)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		capsS, err := sparse.srv.DecideOnce(1)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for u := range capsD {
			if capsD[u] != capsS[u] {
				t.Fatalf("step %d unit %d: sparse cap %v, dense %v", step, u, capsS[u], capsD[u])
			}
		}
	}

	// The sparse pipeline must have done sparse work: rounds whose dirty
	// set was a strict subset of the units (delta suppression reached the
	// mask) and rounds that skipped settled units.
	var subsetRounds, skipped int
	for _, rec := range sparse.srv.FlightRecorder().Last(0, -1) {
		if rec.DirtyUnits > 0 && rec.DirtyUnits < units {
			subsetRounds++
		}
		skipped += rec.SkippedUnits
	}
	if subsetRounds == 0 {
		t.Error("no round saw a strict-subset dirty mask; suppression never reached the controller")
	}
	if skipped == 0 {
		t.Error("sparse controller never skipped a unit-round")
	}
	// The round cache behind /status carries the counters too.
	st := sparse.srv.Snapshot()
	if st.DirtyUnits == 0 || st.DirtyFrac <= 0 || st.DirtyFrac > 1 {
		t.Errorf("status sparse counters unpopulated: dirty=%d frac=%v", st.DirtyUnits, st.DirtyFrac)
	}
	// The reference side sees the same dirty set and skips nothing.
	if stD := dense.srv.Snapshot(); stD.DirtyUnits != st.DirtyUnits || stD.SkippedUnits != 0 {
		t.Errorf("reference status: dirty=%d skipped=%d, want dirty=%d skipped=0", stD.DirtyUnits, stD.SkippedUnits, st.DirtyUnits)
	}
}
