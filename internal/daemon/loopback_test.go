package daemon

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/rapl"
)

// connCounts tallies the Read and Write calls that moved data on one side
// of a fleet's connections: the calls a bare net.Conn turns into read(2)
// and write(2) (a Read that parks and returns with data is one call here;
// the kernel sees its failed first attempt as a second).
type connCounts struct {
	reads, writes, bytes atomic.Int64 // bytes: those the reads returned
}

type countingConn struct {
	net.Conn
	n *connCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.n.reads.Add(1)
		c.n.bytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

// loopbackFleet is bench's nodes1k shape in miniature: agents of two
// units each (batch mode) on real loopback TCP, both
// ends of every connection counted, driven one lock-step round at a time.
type loopbackFleet struct {
	srv           *Server
	agents        []*Agent
	sims          [][]rapl.Device
	server, agent connCounts
	rounds        uint64
}

const loopbackUnits = 2

func newLoopbackFleet(tb testing.TB, agents int) *loopbackFleet {
	tb.Helper()
	f := &loopbackFleet{}
	units := agents * loopbackUnits
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		tb.Fatal(err)
	}
	if f.srv, err = NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second}); err != nil {
		tb.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var handlers sync.WaitGroup
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				f.srv.Handle(countingConn{conn, &f.server})
			}()
		}
	}()
	tb.Cleanup(func() {
		for _, a := range f.agents {
			a.conn.Close()
		}
		f.srv.Close()
		l.Close()
		handlers.Wait()
	})
	for i := 0; i < agents; i++ {
		devs := newTestAgentDevices(tb, loopbackUnits)
		a, err := NewAgent(AgentConfig{
			FirstUnit: power.UnitID(i * loopbackUnits), Devices: devs, Interval: time.Second,
			Batch: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			tb.Fatal(err)
		}
		if err := a.Handshake(countingConn{conn, &f.agent}); err != nil {
			tb.Fatal(err)
		}
		f.agents, f.sims = append(f.agents, a), append(f.sims, devs)
	}
	return f
}

// waitFor spins until the server-side counter reaches want: the harness's
// only view of the Handle goroutines' progress.
func (f *loopbackFleet) waitFor(tb testing.TB, what string, counter func() uint64, want uint64) {
	deadline := time.Now().Add(10 * time.Second)
	for counter() < want {
		if time.Now().After(deadline) {
			tb.Fatalf("round %d: %s stuck at %d of %d", f.rounds, what, counter(), want)
		}
		time.Sleep(time.Microsecond) // not Gosched: with one P a spinning harness starves the netpoller
	}
}

// round runs one closed round: every agent reports a moved reading for
// every unit, the server ingests them all, decides and pushes, every
// agent applies and echoes, the server observes every echo.
func (f *loopbackFleet) round(tb testing.TB) {
	f.rounds++
	for i, a := range f.agents {
		for j, d := range f.sims[i] {
			sim := d.(*rapl.SimDevice)
			sim.SetLoad(power.Watts(30 + (int(f.rounds)*7+i+j*3)%40))
			sim.Advance(1)
		}
		if err := a.ReportOnce(1); err != nil {
			tb.Fatal(err)
		}
	}
	want := f.rounds * uint64(len(f.agents))
	f.waitFor(tb, "ingested batch frames", f.srv.metrics.ingestBatches.Value, want)
	if _, err := f.srv.DecideOnce(1); err != nil {
		tb.Fatal(err)
	}
	for _, a := range f.agents {
		if err := a.ReceiveCaps(); err != nil {
			tb.Fatal(err)
		}
	}
	f.waitFor(tb, "observed apply echoes", f.srv.metrics.e2eLatency.Count, want)
}

// TestLoopbackReadsPerConnectionRound counts the calls where they are
// made. A connection-round is three frames — report up, caps down, echo
// up — so three writes and, with each frame read in the one call its
// bytes arrived in, three reads: two on the server, one on the agent.
// (Reading header, count and body separately, the server made five.)
func TestLoopbackReadsPerConnectionRound(t *testing.T) {
	const agents, rounds = 8, 50
	f := newLoopbackFleet(t, agents)
	f.round(t) // the handshakes' reads and writes, and a first round, stay out of the count
	sr, sw, sb := f.server.reads.Load(), f.server.writes.Load(), f.server.bytes.Load()
	ar, aw, ab := f.agent.reads.Load(), f.agent.writes.Load(), f.agent.bytes.Load()
	for i := 0; i < rounds; i++ {
		f.round(t)
	}
	const connRounds = agents * rounds
	// report: 'B', count, two records; echo: 'A', two bytes; caps: round
	// prefix, two records.
	const upBytes, downBytes = 2 + loopbackUnits*3 + 3, 8 + loopbackUnits*3
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"server-side reads", f.server.reads.Load() - sr, 2 * connRounds},
		{"agent-side reads", f.agent.reads.Load() - ar, 1 * connRounds},
		{"writes", f.server.writes.Load() - sw + f.agent.writes.Load() - aw, 3 * connRounds},
		{"bytes up", f.server.bytes.Load() - sb, upBytes * connRounds},
		{"bytes down", f.agent.bytes.Load() - ab, downBytes * connRounds},
	} {
		if c.got != c.want {
			t.Errorf("%s over %d connection-rounds: %d (%.2f each), want %d", c.what, connRounds, c.got, float64(c.got)/connRounds, c.want)
		}
	}
}

// BenchmarkLoopbackRound times the lock-step round of a many-connection
// fleet and reports the reads it cost per connection-round, so the
// system-call count has a guard outside bench/.
func BenchmarkLoopbackRound(b *testing.B) {
	const agents = 256
	b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
		f := newLoopbackFleet(b, agents)
		f.round(b)
		reads := f.server.reads.Load() + f.agent.reads.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.round(b)
		}
		b.StopTimer()
		reads = f.server.reads.Load() + f.agent.reads.Load() - reads
		b.ReportMetric(float64(reads)/float64(b.N*agents), "reads/conn-round")
	})
}
