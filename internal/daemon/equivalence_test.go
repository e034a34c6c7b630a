package daemon

import (
	"net"
	"testing"
	"time"

	"dps/internal/cluster"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/rapl"
	"dps/internal/sim"
	"dps/internal/telemetry"
	"dps/internal/workload"
)

// scriptDevice is a Device whose energy counter is advanced by the test,
// so an agent's meters read back exactly the wattage the test scripts —
// the same sequence can then be replayed bit-identically into two
// differently-negotiated sessions.
type scriptDevice struct {
	uj  float64
	cap power.Watts
}

func (d *scriptDevice) EnergyMicroJoules() (uint64, error) {
	return uint64(d.uj) % rapl.CounterWrap, nil
}
func (d *scriptDevice) SetCap(w power.Watts) error { d.cap = w; return nil }
func (d *scriptDevice) Cap() (power.Watts, error)  { return d.cap, nil }
func (d *scriptDevice) MaxPower() power.Watts      { return 165 }
func (d *scriptDevice) MinPower() power.Watts      { return 10 }

// advance adds one interval at w average watts (1 s intervals).
func (d *scriptDevice) advance(w power.Watts) { d.uj += float64(w) * 1e6 }

// deltaHarness is one server+agent pair fed by scripted devices.
type deltaHarness struct {
	srv   *Server
	agent *Agent
	devs  []*scriptDevice
}

// frames returns how many upstream frames the server has ingested.
func (h *deltaHarness) frames() uint64 {
	return h.srv.metrics.ingestBatches.Value() + h.srv.metrics.ingestHeartbeats.Value()
}

func newDeltaHarness(t *testing.T, units int, batch bool) *deltaHarness {
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second})
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
		Batch:        batch,
		RefreshEvery: -1, // pure delta: nothing hides behind periodic refreshes
	})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.Handle(server)
	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}
	// Drain cap pushes: net.Pipe writes are synchronous, so DecideOnce
	// would otherwise block forever on its push.
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

// TestBatchDeltaEquivalence is the data-plane correctness theorem: over a
// 500-step simulated reading trace, a batch+delta session with epsilon 0
// must leave the controller with bitwise-identical inputs and outputs to
// a classic per-interval full-report session. Delta suppression with
// epsilon 0 only ever omits a value equal (in wire deciwatts) to the one
// the server already holds, so the two ingest paths may differ in bytes
// on the wire but never in the snapshot the controller decides on.
func TestBatchDeltaEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("500-step closed-loop equivalence run")
	}
	lda, err := workload.ByName("LDA")
	if err != nil {
		t.Fatal(err)
	}
	gmm, err := workload.ByName("GMM")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 500
	var rows []power.Vector
	machine := cluster.DefaultConfig()
	machine.Rapl.NoiseStdDev = 0 // quiet idle gaps, so deltas actually suppress
	cfg := sim.PairConfig{
		Machine:   machine,
		WorkloadA: lda,
		WorkloadB: gmm,
		Repeats:   1 << 20, // never the stop condition; MaxSteps is
		MaxSteps:  steps,
		Seed:      7,
		StepHook: func(_ power.Seconds, rec *telemetry.Round) {
			rows = append(rows, append(power.Vector(nil), rec.Reading...))
		},
	}
	if _, err := sim.RunPair(cfg, sim.DPSFactory()); err != nil {
		t.Fatal(err)
	}
	if len(rows) != steps {
		t.Fatalf("trace has %d steps, want %d", len(rows), steps)
	}
	units := len(rows[0])

	plain := newDeltaHarness(t, units, false)
	delta := newDeltaHarness(t, units, true)

	waitFrames := func(h *deltaHarness, n uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for h.frames() < n {
			if time.Now().After(deadline) {
				t.Fatalf("server ingested %d frames, want %d", h.frames(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	for step, row := range rows {
		for _, h := range []*deltaHarness{plain, delta} {
			for i, d := range h.devs {
				d.advance(row[i])
			}
			if err := h.agent.ReportOnce(1); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			waitFrames(h, uint64(step+1))
		}
		rp, rd := plain.srv.Readings(), delta.srv.Readings()
		for u := range rp {
			if rp[u] != rd[u] {
				t.Fatalf("step %d: readings diverge at unit %d: per-reading %v, delta %v", step, u, rp[u], rd[u])
			}
		}
		capsP, err := plain.srv.DecideOnce(1)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		capsD, err := delta.srv.DecideOnce(1)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for u := range capsP {
			if capsP[u] != capsD[u] {
				t.Fatalf("step %d: caps diverge at unit %d: per-reading %v, delta %v", step, u, capsP[u], capsD[u])
			}
		}
	}

	// The equivalence is only interesting if the delta plane actually
	// suppressed something: the trace's idle gaps must have collapsed
	// into sparse frames or heartbeats.
	suppressed := delta.agent.am.suppressed.Value()
	if suppressed == 0 {
		t.Error("delta session suppressed nothing over the whole trace; equivalence was vacuous")
	}
	sent := delta.srv.metrics.ingestRecords.Value()
	full := plain.srv.metrics.ingestRecords.Value()
	if sent >= full {
		t.Errorf("delta session sent %d records vs %d per-reading; expected fewer", sent, full)
	}
	t.Logf("delta plane: %d/%d records on the wire (%.1f%% suppressed), %d heartbeats",
		sent, full, 100*float64(suppressed)/float64(full), delta.agent.am.heartbeats.Value())
}
