package daemon

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
	"dps/internal/telemetry"
)

// benchRound measures one full decision round over real loopback TCP with
// `agents` connected 2-socket nodes: the §6.5 claim is that fan-out to
// 1,000 nodes costs milliseconds against a one-second loop.
func benchRound(b *testing.B, agents int) {
	units := agents * 2
	mgr, err := core.NewDPS(core.DefaultConfig(units, power.Budget{
		Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10,
	}))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.Handle(conn)
		}
	}()

	// Connect the agents and run their cap-receiving loops so the server's
	// pushes drain.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer srv.Close()
	agentList := make([]*Agent, agents)
	for i := 0; i < agents; i++ {
		devs := make([]rapl.Device, 2)
		for j := range devs {
			cfg := rapl.DefaultSimConfig()
			cfg.NoiseStdDev = 0
			d, err := rapl.NewSimDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.SetLoad(120)
			d.Advance(1)
			devs[j] = d
		}
		a, err := Dial("tcp", l.Addr().String(), AgentConfig{
			FirstUnit: power.UnitID(i * 2),
			Devices:   devs,
			Interval:  time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		agentList[i] = a
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			for a.ReceiveCaps() == nil {
			}
		}(a)
	}
	// One report each so the server has readings.
	for _, a := range agentList {
		if err := a.ReportOnce(1); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for all reports to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := srv.Readings()
		ok := true
		for _, w := range r {
			if w == 0 {
				ok = false
				break
			}
		}
		if ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(agents), "nodes")
}

func BenchmarkDaemonRound10Nodes(b *testing.B)  { benchRound(b, 10) }
func BenchmarkDaemonRound100Nodes(b *testing.B) { benchRound(b, 100) }

// BenchmarkDecideOnce is one warm DecideOnce on a server with no agent
// connected and readings that never move. Every unit settles, core's
// sparse round skips it, and no push goes out, so what is left is the
// daemon's own per-round O(N) bookkeeping: the double-buffer flip, the
// round record's fill, the metrics and the audits — steady16k's
// controller round without its wire.
func BenchmarkDecideOnce(b *testing.B) {
	for _, units := range []int{16384} {
		b.Run(fmt.Sprintf("units=%d", units), func(b *testing.B) {
			mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
			if err != nil {
				b.Fatal(err)
			}
			srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			readings := make(power.Vector, units)
			for u := range readings {
				readings[u] = power.Watts(40 + (u*7)%60)
			}
			setReadings(srv, readings)
			// Settle every unit, and lap the flight recorder so its slots
			// hold their columns.
			for i := 0; i < telemetry.DefaultFlightRecorderSize+40; i++ {
				if _, err := srv.DecideOnce(1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.DecideOnce(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundViews times the two JSON views an operator polls, /status
// and /debug/rounds?n=1, on a 16 384-unit DPS server after dense rounds of
// deciwatt readings, into a writer that keeps nothing: the traffic
// bench's telemetry.status_ms and telemetry.rounds_ms measure.
func BenchmarkRoundViews(b *testing.B) {
	const units = 16384
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second, FlightRecorderSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	readings := make(power.Vector, units)
	for i := 0; i < 8; i++ {
		for u := range readings {
			readings[u] = power.Watts(400+(u*37+i*911)%1300) / 10
		}
		setReadings(srv, readings)
		if _, err := srv.DecideOnce(1); err != nil {
			b.Fatal(err)
		}
	}
	mux := srv.StatusHandler()
	for _, view := range []struct{ name, url string }{{"status", "/status"}, {"rounds", "/debug/rounds?n=1"}} {
		b.Run(fmt.Sprintf("%s/units=%d", view.name, units), func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, view.url, nil)
			w := &discardResponse{header: http.Header{}}
			mux.ServeHTTP(w, req)
			if w.code != 0 && w.code != http.StatusOK {
				b.Fatalf("GET %s: %d", view.url, w.code)
			}
			b.SetBytes(int64(w.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mux.ServeHTTP(w, req)
			}
		})
	}
}

// discardResponse is a ResponseWriter that counts the body and keeps
// nothing.
type discardResponse struct {
	header http.Header
	code   int
	n      int
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// BenchmarkProtoBatchPerNode isolates one node's wire encoding per round.
func BenchmarkProtoBatchPerNode(b *testing.B) {
	srv, agent := func() (*Server, *Agent) {
		mgr, err := core.NewDPS(core.DefaultConfig(2, testBudget(2)))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Manager: mgr, Units: 2, Interval: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		a, devs := func() (*Agent, []*rapl.SimDevice) {
			devs := make([]rapl.Device, 2)
			sims := make([]*rapl.SimDevice, 2)
			for i := range devs {
				cfg := rapl.DefaultSimConfig()
				cfg.NoiseStdDev = 0
				d, err := rapl.NewSimDevice(cfg)
				if err != nil {
					b.Fatal(err)
				}
				d.SetLoad(120)
				devs[i] = d
				sims[i] = d
			}
			a, err := NewAgent(AgentConfig{FirstUnit: 0, Devices: devs, Interval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			return a, sims
		}()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			conn, err := l.Accept()
			if err == nil {
				go srv.Handle(conn)
			}
			l.Close()
		}()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Handshake(conn); err != nil {
			b.Fatal(err)
		}
		_ = devs
		return srv, a
	}()
	defer srv.Close()

	go func() {
		for agent.ReceiveCaps() == nil {
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dev := range agent.cfg.Devices {
			dev.(*rapl.SimDevice).Advance(0.001)
		}
		if err := agent.ReportOnce(0.001); err != nil {
			b.Fatal(err)
		}
		if i%64 == 0 {
			if _, err := srv.DecideOnce(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	if srv.Rounds() == 0 {
		b.Fatal("no rounds completed")
	}
}

// BenchmarkReplicateRound times what a primary pays per round to keep one
// synced warm standby: building the round's input frame under fully dense
// traffic with health tracking on (the ops16k shape) and writing it to
// the replica. `make bench-smoke` runs it once so it cannot rot.
func BenchmarkReplicateRound(b *testing.B) {
	const units = 16384
	b.Run(fmt.Sprintf("N=%d", units), func(b *testing.B) {
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second,
			StaleAfter: 3 * time.Second, DeadAfter: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client, server := net.Pipe()
		defer client.Close()
		go srv.Handle(server)
		if err := proto.WriteHello(client, proto.Hello{FirstUnit: 0, Units: 1, Replicate: true}); err != nil {
			b.Fatal(err)
		}
		if err := rawReadAck(client); err != nil {
			b.Fatal(err)
		}
		var frameBytes atomic.Int64
		go func() {
			var buf []byte
			for {
				_, payload, grown, err := proto.ReadStateFrame(client, buf)
				if err != nil {
					return
				}
				buf = grown
				frameBytes.Store(int64(len(payload)))
			}
		}()
		for registered := false; !registered; time.Sleep(time.Millisecond) {
			srv.snapMu.Lock()
			registered = len(srv.replicas) == 1
			srv.snapMu.Unlock()
		}
		readings := make(power.Vector, units)
		for u := range readings {
			readings[u] = power.Watts(40 + (u*7)%100)
		}
		var caps power.Vector
		for i := 0; i < 3; i++ { // image to the new replica, then input frames
			setReadings(srv, readings)
			if caps, err = srv.DecideOnce(1); err != nil {
				b.Fatal(err)
			}
		}
		round := srv.Rounds()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round++
			srv.replicateRound(round, 1, caps, nil)
		}
		b.ReportMetric(float64(frameBytes.Load())/1024, "frame_kB")
	})
}
