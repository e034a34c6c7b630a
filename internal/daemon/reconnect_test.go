package daemon

import (
	"context"
	"net"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/rapl"
)

// TestRunWithReconnectOneAddress kills the controller mid-session and
// verifies the agent, given that one address, rejoins a replacement on
// its own, continuing to apply caps.
func TestRunWithReconnectOneAddress(t *testing.T) {
	units := 2
	startServer := func() (*Server, net.Listener) {
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		return srv, l
	}

	srv1, l1 := startServer()
	addr := l1.Addr().String()

	devs := make([]rapl.Device, units)
	for i := range devs {
		cfg := rapl.DefaultSimConfig()
		cfg.NoiseStdDev = 0
		d, err := rapl.NewSimDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetLoad(120)
		devs[i] = d
	}
	agent, err := NewAgent(AgentConfig{FirstUnit: 0, Devices: devs, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- agent.RunWithReconnectAddrs(ctx, "tcp", []string{addr}, 20*time.Millisecond, 200*time.Millisecond)
	}()

	// Drive the devices so meters have energy to report.
	driver := time.NewTicker(5 * time.Millisecond)
	defer driver.Stop()
	drive := func(until func() bool, what string) {
		deadline := time.After(5 * time.Second)
		for !until() {
			select {
			case <-driver.C:
				for _, d := range devs {
					d.(*rapl.SimDevice).Advance(0.005)
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %s (applied=%d)", what, agent.Applied())
			}
		}
	}

	drive(func() bool { return agent.Applied() >= 3 }, "initial caps")
	before := agent.Applied()

	// Kill the first controller entirely.
	srv1.Close()
	l1.Close()
	time.Sleep(50 * time.Millisecond)

	// Start a replacement on a new port is not enough — the agent dials
	// the old address, so bind the replacement to it.
	mgr2, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(ServerConfig{Manager: mgr2, Units: units, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	for i := 0; i < 100; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go srv2.Serve(l2)
	defer func() { srv2.Close(); l2.Close() }()

	drive(func() bool { return agent.Applied() >= before+3 }, "caps after reconnect")

	cancel()
	if err := <-done; err != nil {
		t.Errorf("RunWithReconnectAddrs: %v", err)
	}
}
