package daemon

import (
	"context"
	"net"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/faultinject"
	"dps/internal/power"
	"dps/internal/rapl"
)

// TestChaosWallClock runs the full deployed stack — Serve loop, real TCP,
// reconnecting agents — under injected faults: connections that randomly
// drop and devices with transient read errors and crash-restarts. The
// budget invariant must hold at every observation, and once the chaos
// window closes the cluster must converge back to all-fresh. The watchdog
// rides along as a second, independent oracle: its builtin audits see
// every decision round (not just this test's 5 ms observations) and none
// of them may ever fire on a correct controller, chaos or not.
func TestChaosWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock chaos test skipped in -short")
	}
	const units = 4
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager:         mgr,
		Units:           units,
		Interval:        10 * time.Millisecond,
		StaleAfter:      100 * time.Millisecond,
		DeadAfter:       300 * time.Millisecond,
		ReadIdleTimeout: 200 * time.Millisecond,
		SeriesEnabled:   true,
		WatchEnabled:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		l.Close()
		<-serveDone
	}()
	addr := l.Addr().String()
	budget := testBudget(units)

	counters := faultinject.NewCounters(srv.Telemetry())

	// Each agent meters fault-wrapped devices: transient errors the
	// tolerant meter rides through, plus occasional crash-restarts.
	newChaosAgent := func(first power.UnitID, seed int64) *Agent {
		devs := make([]rapl.Device, 2)
		for i := range devs {
			cfg := rapl.DefaultSimConfig()
			cfg.NoiseStdDev = 0
			cfg.Seed = seed*10 + int64(i)
			sim, err := rapl.NewSimDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.SetLoad(120)
			devs[i] = faultinject.WrapDevice(sim, faultinject.DeviceConfig{
				Seed:       seed*100 + int64(i),
				ErrProb:    0.05,
				CrashEvery: 40,
			}, counters)
		}
		a, err := NewAgent(AgentConfig{
			FirstUnit: first,
			Devices:   devs,
			Interval:  10 * time.Millisecond,
			// Chaos runs on the batch/delta plane: suppression and
			// heartbeats must survive drops and re-handshakes with the
			// same invariants as full per-interval reports.
			Batch:        true,
			DeltaEpsilon: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	agents := []*Agent{newChaosAgent(0, 1), newChaosAgent(2, 2)}

	// Agents dial through fault-injected connections while chaos is on:
	// sessions drop mid-run and the loop re-handshakes — the kill/restart
	// cycle, driven by the seeded schedule.
	chaosCtx, stopChaos := context.WithCancel(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{}, len(agents))
	for i, a := range agents {
		go func(a *Agent, seed int64) {
			defer func() { runDone <- struct{}{} }()
			for ctx.Err() == nil {
				conn, err := net.Dial("tcp", addr)
				if err == nil {
					var c net.Conn = conn
					if chaosCtx.Err() == nil {
						c = faultinject.WrapConn(conn, faultinject.ConnConfig{
							Seed:     seed,
							DropProb: 0.01,
						}, counters)
					}
					if err := a.Handshake(c); err == nil {
						a.Run(ctx)
					}
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
		}(a, int64(i+1))
	}

	// Observe the invariant through the whole run: the sum of caps the
	// controller considers delivered never exceeds the budget.
	violations := 0
	observe := time.NewTicker(5 * time.Millisecond)
	defer observe.Stop()
	chaosUntil := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(chaosUntil) {
		<-observe.C
		if st := srv.Snapshot(); st.CapSumW > float64(budget.Total)+1e-6 {
			violations++
			t.Errorf("budget violated during chaos: Σcaps %v > %v", st.CapSumW, budget.Total)
		}
	}
	if violations > 0 {
		t.Fatalf("%d budget violations during chaos", violations)
	}
	stopChaos()

	// Convergence: with faults off (fresh, unwrapped connections), every
	// unit must return to fresh and caps must keep flowing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Snapshot()
		if st.Agents == len(agents) && st.StaleUnits == 0 && st.DeadUnits == 0 && st.Rounds > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged after chaos: %+v", st)
		}
		if st.CapSumW > float64(budget.Total)+1e-6 {
			t.Fatalf("budget violated during recovery: Σcaps %v > %v", st.CapSumW, budget.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The embedded auditor watched every round the loop ran, including the
	// ones between this test's coarse observations. A correct controller
	// never trips an invariant, so a single lifetime firing of any builtin
	// is a failure — the watchdog caught what the polling above missed.
	for _, a := range srv.Watcher().Alerts() {
		if a.FiredCount != 0 {
			t.Errorf("watchdog rule %s fired %d times during chaos (last: %s)",
				a.Rule, a.FiredCount, a.Message)
		}
	}

	cancel()
	for range agents {
		<-runDone
	}
}
