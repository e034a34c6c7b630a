package sim

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"dps/internal/cluster"
	"dps/internal/core"
	"dps/internal/daemon"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// TestStepFillsTheRecordDecideOnceFills is the differential of what feeds
// the round engine: the same scripted readings — mixed demand, saturation
// (Algorithm 4 equalizes), an all-quiet spell (Algorithm 3 restores) and a
// tail that holds still (no module moves a cap) — go through
// daemon.DecideOnce, over a real agent connection, and through
// the simulator's controller step, one core.DPS of the same configuration
// each. Both run engine.Engine and fill the record from its Decision, so
// the test guards ingest→engine (the wire, the double buffer, the dirty
// mask) against sim→engine: every column and audit count must agree to
// the bit.
func TestStepFillsTheRecordDecideOnceFills(t *testing.T) {
	machine := cluster.DefaultConfig()
	machine.Clusters, machine.NodesPerCluster, machine.SocketsPerNode = 2, 2, 2
	units := machine.Units()
	budget := power.Budget{Total: power.Watts(units) * 70, UnitMax: 165, UnitMin: 10}
	const seed = 5

	l, err := newLoop(PairConfig{Machine: machine, Budget: budget, DT: 1, Seed: seed}, DPSFactory())
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig(units, budget)
	cfg.Seed = seed
	mgr, err := core.NewDPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := daemon.NewServer(daemon.ServerConfig{Manager: mgr, Units: units, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	agent, server := net.Pipe()
	defer agent.Close()
	go srv.Handle(server)
	if err := proto.WriteHello(agent, proto.Hello{Units: units}); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte // OK and the advertised delta epsilon
	if _, err := io.ReadFull(agent, ack[:]); err != nil || string(ack[:2]) != "OK" {
		t.Fatalf("handshake: ack %q, %v", ack, err)
	}
	go io.Copy(io.Discard, agent) // cap pushes: a pipe write needs a reader
	ingested := srv.Telemetry().Counter("dps_ingest_records_total", "")
	report := func(readings power.Vector) {
		t.Helper()
		want := ingested.Value() + uint64(units)
		buf := make([]byte, 2+units*proto.RecordSize) // one batch frame carrying every unit
		buf[0], buf[1] = proto.FrameBatch, byte(units)
		for u, v := range readings {
			proto.PutRecord(buf[2+u*proto.RecordSize:], proto.Record{LocalUnit: uint8(u), Value: proto.ToDeciwatts(v)})
		}
		if _, err := agent.Write(buf); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ingested.Value() < want; {
			if time.Now().After(deadline) {
				t.Fatal("the server never ingested the report")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	readings := make(power.Vector, units)
	var restores, equalizes, moverless int
	for round := 1; round <= 90; round++ {
		for u := range readings {
			var demand power.Watts
			switch {
			case round <= 30: // staggered hot and idle units
				demand = 30
				if (u+round/6)%3 == 0 {
					demand = 150
				}
			case round <= 50: // everyone wants more than the budget holds
				demand = power.Watts(120 + 5*u)
			default: // all quiet, and still
				demand = 15
			}
			// Closed loop on the wire's grid: a unit draws at most its cap.
			readings[u] = proto.FromDeciwatts(proto.ToDeciwatts(min(demand, l.eng.Prev[u])))
		}
		report(readings)
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		if err := l.step(readings); err != nil {
			t.Fatal(err)
		}

		sim := &l.rec
		srv.FlightRecorder().Each(1, func(dmn *telemetry.Round) {
			if dmn.Round != sim.Round || dmn.Interval != sim.Interval || dmn.HasStats != sim.HasStats ||
				dmn.BudgetW != sim.BudgetW || dmn.CapSumW != sim.CapSumW || dmn.ProvViolations != sim.ProvViolations {
				t.Fatalf("round %d: daemon record %d/%v/%t budget %v Σ %v unexplained %d, simulator %d/%v/%t budget %v Σ %v unexplained %d",
					round, dmn.Round, dmn.Interval, dmn.HasStats, dmn.BudgetW, dmn.CapSumW, dmn.ProvViolations,
					sim.Round, sim.Interval, sim.HasStats, sim.BudgetW, sim.CapSumW, sim.ProvViolations)
			}
			for _, col := range []struct {
				name     string
				dmn, sim any
			}{
				{"Reading", dmn.Reading, sim.Reading}, {"Cap", dmn.Cap, sim.Cap}, {"PrevCap", dmn.PrevCap, sim.PrevCap},
				{"Prio", dmn.Prio, sim.Prio}, {"Reason", dmn.Reason, sim.Reason},
			} {
				if d, s := fmt.Sprint(col.dmn), fmt.Sprint(col.sim); d != s {
					t.Fatalf("round %d column %s:\n daemon    %s\n simulator %s", round, col.name, d, s)
				}
			}
		})
		if sim.ProvViolations != 0 {
			t.Fatalf("round %d: %d caps moved without a reason", round, sim.ProvViolations)
		}
		moved := false
		for u, r := range sim.Reason {
			moved = moved || r != trace.ReasonNone || sim.Cap[u] != sim.PrevCap[u]
		}
		switch {
		case !moved:
			moverless++
		case sim.Stats.Restored:
			restores++
		case sim.Stats.BudgetExhausted:
			equalizes++
		}
	}
	if restores == 0 || equalizes == 0 || moverless == 0 {
		t.Errorf("script hit %d restore, %d equalize and %d moverless rounds; it must hit each", restores, equalizes, moverless)
	}
}
