package daemon

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/rapl"
)

// TestFailoverSmoke is the wall-clock high-availability end-to-end
// (`make failover-smoke`): a primary serving real reconnecting agents
// over TCP, a warm standby following its replication stream, and the
// replication link closed under it once the cluster is steady, standing
// in for the primary's death. The standby must
// take over, the agents must rotate onto it through their ordinary
// failover address list, and the cluster must converge back to all-fresh
// — with the standby's watchdog, which audited every post-takeover
// round, completely silent.
func TestFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock failover smoke skipped in -short")
	}
	const units = 4
	const interval = 20 * time.Millisecond
	budget := testBudget(units)

	newServer := func(mutate func(*ServerConfig)) *Server {
		mgr, err := core.NewDPS(core.DefaultConfig(units, budget))
		if err != nil {
			t.Fatal(err)
		}
		cfg := ServerConfig{
			Manager:       mgr,
			Units:         units,
			Interval:      interval,
			StaleAfter:    100 * time.Millisecond,
			DeadAfter:     300 * time.Millisecond,
			SeriesEnabled: true,
			WatchEnabled:  true,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	primary := newServer(nil)
	primaryL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primaryAddr := primaryL.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- primary.Serve(primaryL) }()

	// Reserve the standby's takeover address up front: the agents carry it
	// in their failover list from the start, exactly like a deployed
	// `-connect primary:7891,standby:7891`.
	tmpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	standbyAddr := tmpL.Addr().String()
	tmpL.Close()

	standby := newServer(func(sc *ServerConfig) { sc.StandbyOf = primaryAddr })
	// The test keeps the replication connection the standby dials, to
	// close it under the standby: from its point of view, the primary
	// failed mid-stream.
	var lmu sync.Mutex
	var replication net.Conn
	var takeoverL net.Listener
	standby.dial = func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err == nil {
			lmu.Lock()
			replication = conn
			lmu.Unlock()
		}
		return conn, err
	}
	standbyDone := make(chan error, 1)
	go func() {
		standbyDone <- standby.RunStandby(context.Background(), func() (net.Listener, error) {
			l, err := net.Listen("tcp", standbyAddr)
			if err != nil {
				return nil, err
			}
			lmu.Lock()
			takeoverL = l
			lmu.Unlock()
			return l, nil
		})
	}()

	// Two sim-backed agents, each owning two units, reconnecting through
	// the ordinary failover rotation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentDone := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		devs := make([]rapl.Device, 2)
		for j := range devs {
			cfg := rapl.DefaultSimConfig()
			cfg.NoiseStdDev = 0
			cfg.Seed = int64(i*10 + j + 1)
			sim, err := rapl.NewSimDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.SetLoad(120)
			devs[j] = sim
		}
		a, err := NewAgent(AgentConfig{
			FirstUnit: power.UnitID(i * 2),
			Devices:   devs,
			Interval:  interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer func() { agentDone <- struct{}{} }()
			a.RunWithReconnectAddrs(ctx, "tcp", []string{primaryAddr, standbyAddr},
				5*time.Millisecond, 50*time.Millisecond)
		}()
	}

	waitState := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (primary %+v, standby %+v)",
					what, primary.Snapshot(), standby.Snapshot())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: steady state — both agents on the primary, the standby
	// synced and following.
	waitState("agents and standby attached to primary", 10*time.Second, func() bool {
		st := primary.Snapshot()
		primary.snapMu.Lock()
		replicas := len(primary.replicas)
		primary.snapMu.Unlock()
		return st.Agents == 2 && st.StaleUnits == 0 && st.DeadUnits == 0 && st.Rounds > 3 && replicas == 1 &&
			standby.Rounds() > 0
	})

	// Phase 2: the replication link is severed; the synced standby
	// declares the primary dead and takes over. The primary process is
	// then gone for real, so its agents drop and rotate.
	lmu.Lock()
	replication.Close()
	lmu.Unlock()
	waitState("standby takeover", 20*time.Second, func() bool {
		return standby.metrics.failovers.Value() == 1
	})
	primary.Close()
	primaryL.Close()
	<-serveDone

	// Phase 3: convergence on the standby — every agent re-attached, all
	// units fresh, rounds flowing, budget intact.
	waitState("agents converged on standby", 20*time.Second, func() bool {
		st := standby.Snapshot()
		return st.Agents == 2 && st.StaleUnits == 0 && st.DeadUnits == 0 && st.UptimeRounds > 3
	})
	r1 := standby.Rounds()
	waitState("standby rounds advancing", 10*time.Second, func() bool {
		return standby.Rounds() > r1
	})
	st := standby.Snapshot()
	if st.CapSumW > float64(budget.Total)+1e-6 {
		t.Errorf("budget violated after failover: Σcaps %v > %v", st.CapSumW, budget.Total)
	}
	if st.UptimeRounds >= st.StateAgeRounds {
		t.Errorf("standby uptime %d not younger than its state age %d — inheritance not recorded",
			st.UptimeRounds, st.StateAgeRounds)
	}

	// The watchdog audited every round the standby decided, takeover
	// included. A budget-safe handover keeps every builtin silent.
	for _, a := range standby.Watcher().Alerts() {
		if a.FiredCount != 0 {
			t.Errorf("standby watchdog rule %s fired %d times across the failover (last: %s)",
				a.Rule, a.FiredCount, a.Message)
		}
	}
	if got := standby.metrics.failovers.Value(); got != 1 {
		t.Errorf("dps_failover_total = %d, want exactly 1", got)
	}

	cancel()
	standby.Close()
	lmu.Lock()
	if takeoverL != nil {
		takeoverL.Close()
	}
	lmu.Unlock()
	<-standbyDone
	<-agentDone
	<-agentDone
}
