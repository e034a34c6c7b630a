package daemon

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"dps/internal/baseline"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

func testBudget(units int) power.Budget {
	return power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
}

func newTestServer(t *testing.T, units int) *Server {
	t.Helper()
	cfg := core.DefaultConfig(units, testBudget(units))
	mgr, err := core.NewDPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestAgent(t *testing.T, first power.UnitID, n int) (*Agent, []*rapl.SimDevice) {
	t.Helper()
	devs := newTestAgentDevices(t, n)
	sims := make([]*rapl.SimDevice, n)
	for i, d := range devs {
		sims[i] = d.(*rapl.SimDevice)
	}
	a, err := NewAgent(AgentConfig{FirstUnit: first, Devices: devs, Interval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return a, sims
}

// TestServerConfigValidation: each bad config is refused by name; dpsd
// runs only the DPS controller, so a baseline manager is refused by its
// type.
func TestServerConfigValidation(t *testing.T) {
	mgr := mustDPS(t, 2)
	constant, _ := baseline.NewConstant(2, testBudget(2))
	for want, cfg := range map[string]ServerConfig{
		"<nil>":              {Manager: nil, Units: 2, Interval: time.Second},
		"*baseline.Constant": {Manager: constant, Units: 2, Interval: time.Second},
		"unit count":         {Manager: mgr, Units: 0, Interval: time.Second},
		"interval":           {Manager: mgr, Units: 2, Interval: 0},
		"addressable":        {Manager: mgr, Units: 1 << 17, Interval: time.Second},
	} {
		if _, err := NewServer(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewServer(%+v) = %v, want a refusal naming %q", cfg, err, want)
		}
	}
}

// TestUnitMaxBeyondWireRefused: a cap travels as uint16 deciwatts, so a
// budget whose per-unit maximum exceeds 6553.5 W would have its larger
// caps clamped on delivery while /status reports the undelivered value.
// The ceiling itself is accepted; one deciwatt above is refused by name.
func TestUnitMaxBeyondWireRefused(t *testing.T) {
	ceiling := proto.FromDeciwatts(proto.MaxDeciwatts)
	for _, tc := range []struct {
		unitMax power.Watts
		ok      bool
	}{
		{ceiling, true},
		{ceiling + 0.1, false},
		{7000, false},
	} {
		mgr, err := core.NewDPS(core.DefaultConfig(2, power.Budget{Total: 220, UnitMax: tc.unitMax, UnitMin: 10}))
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewServer(ServerConfig{Manager: mgr, Units: 2, Interval: time.Second})
		switch {
		case tc.ok && err != nil:
			t.Errorf("unit max %v: NewServer refused: %v", tc.unitMax, err)
		case !tc.ok && err == nil:
			t.Errorf("unit max %v: NewServer accepted a cap the wire clamps", tc.unitMax)
		case !tc.ok && !strings.Contains(err.Error(), "6553.5"):
			t.Errorf("unit max %v: refusal %q does not name the 6553.5 W ceiling", tc.unitMax, err)
		}
	}
}

func TestAgentConfigValidation(t *testing.T) {
	dev, _ := rapl.NewSimDevice(rapl.DefaultSimConfig())
	bad := []AgentConfig{
		{Devices: nil, Interval: time.Second},
		{Devices: []rapl.Device{dev}, Interval: 0},
		{Devices: []rapl.Device{dev}, FirstUnit: -1, Interval: time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewAgent(cfg); err == nil {
			t.Errorf("case %d: NewAgent accepted %+v", i, cfg)
		}
	}
}

// TestNodeUnitLimit pins the per-node unit limit at its boundary: the
// agent's config check and the handshake validator share one constant
// (they used to sit one apart, 256 vs 255), so both admit exactly
// proto.MaxNodeUnits units and reject one more.
func TestNodeUnitLimit(t *testing.T) {
	dev, _ := rapl.NewSimDevice(rapl.DefaultSimConfig())
	for _, tc := range []struct {
		units int
		ok    bool
	}{
		{1, true},
		{proto.MaxNodeUnits, true}, // 255
		{proto.MaxNodeUnits + 1, false},
	} {
		devs := make([]rapl.Device, tc.units)
		for i := range devs {
			devs[i] = dev
		}
		agentErr := AgentConfig{Devices: devs, Interval: time.Second}.validate()
		helloErr := proto.Hello{Units: tc.units}.Validate()
		if (agentErr == nil) != tc.ok || (helloErr == nil) != tc.ok {
			t.Errorf("%d units: agent config err %v, hello err %v; want accepted=%v by both",
				tc.units, agentErr, helloErr, tc.ok)
		}
		if !tc.ok && !strings.Contains(agentErr.Error(), "per-node limit") {
			t.Errorf("%d units: agent config rejected by %q, want its own per-node limit check", tc.units, agentErr)
		}
	}
}

func TestServerRejectsOverlappingUnitRanges(t *testing.T) {
	srv := newTestServer(t, 4)
	a1, _ := newTestAgent(t, 0, 2)
	c1, s1 := net.Pipe()
	go srv.Handle(s1)
	if err := a1.Handshake(c1); err != nil {
		t.Fatal(err)
	}

	// Second agent claims units [1,3): overlaps unit 1.
	a2, _ := newTestAgent(t, 1, 2)
	c2, s2 := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- srv.Handle(s2) }()
	if err := a2.Handshake(c2); err == nil {
		t.Error("overlapping agent handshake succeeded")
	}
	if err := <-errc; err == nil {
		t.Error("server accepted an overlapping unit range")
	}
	c1.Close()
}

func TestServerRejectsOutOfRangeUnits(t *testing.T) {
	srv := newTestServer(t, 2)
	a, _ := newTestAgent(t, 1, 2) // claims [1,3) on a 2-unit server
	c, s := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- srv.Handle(s) }()
	if err := a.Handshake(c); err == nil {
		t.Error("out-of-range handshake succeeded")
	}
	if err := <-errc; err == nil {
		t.Error("server accepted an out-of-range unit claim")
	}
}

func TestAgentMethodsRequireConnection(t *testing.T) {
	a, _ := newTestAgent(t, 0, 1)
	if err := a.ReportOnce(1); err == nil {
		t.Error("ReportOnce succeeded without a connection")
	}
	if err := a.ReceiveCaps(); err == nil {
		t.Error("ReceiveCaps succeeded without a connection")
	}
	if err := a.Run(context.Background()); err == nil {
		t.Error("Run succeeded without a connection")
	}
}

// TestServeOverTCP exercises the composed real-time path: listener, accept
// loop, ticker-driven decisions, agent Run loop — briefly, with a fast
// interval.
func TestServeOverTCP(t *testing.T) {
	units := 2
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	devs := make([]rapl.Device, units)
	sims := make([]*rapl.SimDevice, units)
	for i := range devs {
		cfg := rapl.DefaultSimConfig()
		cfg.NoiseStdDev = 0
		d, err := rapl.NewSimDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetLoad(140)
		devs[i] = d
		sims[i] = d
	}
	agent, err := Dial("tcp", l.Addr().String(), AgentConfig{
		FirstUnit: 0,
		Devices:   devs,
		Interval:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- agent.Run(ctx) }()

	// Keep the devices drawing power in real time.
	driver := time.NewTicker(5 * time.Millisecond)
	defer driver.Stop()
	deadline := time.After(3 * time.Second)
	for agent.Applied() < 5 {
		select {
		case <-driver.C:
			for _, d := range sims {
				d.Advance(0.005)
			}
		case <-deadline:
			t.Fatalf("agent applied only %d cap batches in 3 s", agent.Applied())
		}
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Errorf("agent.Run: %v", err)
	}
	srv.Close()
	l.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if srv.Rounds() < 5 {
		t.Errorf("server completed %d rounds", srv.Rounds())
	}
}
