package daemon

import (
	"bytes"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
)

// TestConcurrentDecideAndScrapes drives the decision loop — through the
// stats-returning DecideStats path — while
// /metrics, /status and /debug/rounds are scraped concurrently. Run with
// -race, this is the proof that a decision round never races an observer:
// exactly the overlap a deployed daemon sees every interval.
func TestConcurrentDecideAndScrapes(t *testing.T) {
	const (
		units  = 64
		rounds = 60
	)
	budget := power.Budget{Total: power.Watts(units) * 80, UnitMax: 165, UnitMin: 10}
	mgr, err := core.NewDPS(core.DefaultConfig(units, budget))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.StatusHandler()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/status", "/debug/rounds"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("GET %s = %d", path, rec.Code)
					return
				}
			}
		}(path)
	}

	for i := 0; i < rounds; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()

	if got := srv.Rounds(); got != rounds {
		t.Fatalf("Rounds() = %d, want %d", got, rounds)
	}
}

// TestPushToReleasedSessionIsAnError pins the deterministic half of the
// push/release fix: DecideOnce pushes to a target list it snapshotted
// earlier, so it can reach a connection whose Handle goroutine already
// returned its pooled buffers. That push must fail cleanly and count as a
// push error — it used to dereference the nil buffers.
func TestPushToReleasedSessionIsAnError(t *testing.T) {
	srv := newTestServer(t, 2)
	sc, _ := scriptedServerConn(t, proto.Hello{FirstUnit: 0, Units: 2})
	if err := srv.register(sc); err != nil {
		t.Fatal(err)
	}
	sc.release() // torn down, but still in the round's target list

	if _, err := srv.DecideOnce(1); err == nil || !strings.Contains(err.Error(), "released") {
		t.Fatalf("DecideOnce error = %v, want the released-session push error", err)
	}
	if got := srv.metrics.pushErrors.Value(); got != 1 {
		t.Errorf("dps_push_errors_total = %d, want 1", got)
	}
}

// TestPushRacesDisconnect is the -race half: agents connect and vanish
// while the decision loop pushes caps. The session's pooled buffers are
// released under the connection's write lock, so a push either completes
// first or sees the release — never writes through buffers the pool may
// already have handed to the next session.
func TestPushRacesDisconnect(t *testing.T) {
	const (
		agents = 4
		churn  = 40
	)
	srv := newTestServer(t, 2*agents)
	defer srv.Close()

	var wg sync.WaitGroup
	var sessions atomic.Int64
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for i := 0; i < churn; i++ {
				client, server := net.Pipe()
				handled := make(chan struct{})
				go func() { srv.Handle(server); close(handled) }()
				if err := proto.WriteHello(client, proto.Hello{FirstUnit: power.UnitID(first), Units: 2}); err != nil {
					t.Errorf("hello: %v", err)
				} else if err := rawReadAck(client); err != nil {
					// The ack is the first thing a session reads, however a
					// decision round interleaves with the handshake.
					t.Errorf("handshake: %v", err)
				} else {
					sessions.Add(1)
					// Drain at most one cap push, then hang up — often with
					// the next push already on its way.
					client.SetReadDeadline(time.Now().Add(200 * time.Microsecond))
					_ = rawReadCaps(client, make([]power.Watts, 2))
				}
				client.Close()
				<-handled
			}
		}(2 * a)
	}
	stop := make(chan struct{})
	decided := make(chan struct{})
	go func() {
		defer close(decided)
		for {
			select {
			case <-stop:
				return
			default:
				srv.DecideOnce(1) // push errors are the point, not a failure
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-decided
	if sessions.Load() != agents*churn {
		t.Errorf("only %d of %d sessions completed a handshake", sessions.Load(), agents*churn)
	}
}

// ackGateConn is the server's end of an agent connection that pauses the
// first write it sees — the handshake ack — until a whole decision round
// has had its chance to run: it starts one, waits for the manager to have
// decided (after which nothing but the push stands between the round and
// this connection), gives the push a moment to arrive, and only then lets
// the ack out. Everything written lands in out, in wire order. Reads
// replay the scripted hello and then hold the session open until the
// round is over.
type ackGateConn struct {
	ingestScriptConn
	srv      *Server
	decided  chan struct{}
	round    chan error
	roundErr error

	mu    sync.Mutex
	out   bytes.Buffer
	gated bool
}

func (c *ackGateConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		c.roundErr = <-c.round
	}
	return n, err
}

func (c *ackGateConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := !c.gated
	c.gated = true
	c.mu.Unlock()
	if first {
		go func() {
			_, err := c.srv.DecideOnce(1)
			c.round <- err
		}()
		<-c.decided
		time.Sleep(20 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

// TestCapBatchNeverPrecedesAck pins the handshake ordering: a connection
// becomes a push target the moment it registers, so a decision round
// landing between registration and the ack used to write its cap batch
// first, and the agent read garbage where it expected "OK". The round
// must wait with its push until the ack is on the wire.
func TestCapBatchNeverPrecedesAck(t *testing.T) {
	const units = 2
	srv, err := NewServer(ServerConfig{Manager: mustDPS(t, units), Units: units, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The engine reads its clock just before and just after the controller
	// decides: the first round's second read closes decided.
	decided := make(chan struct{})
	var reads atomic.Int32
	srv.eng.Clock = func() time.Time {
		if reads.Add(1) == 2 {
			close(decided)
		}
		return time.Now()
	}

	var hello bytes.Buffer
	if err := proto.WriteHello(&hello, proto.Hello{FirstUnit: 0, Units: units}); err != nil {
		t.Fatal(err)
	}
	conn := &ackGateConn{srv: srv, decided: decided, round: make(chan error, 1)}
	conn.r = bytes.NewReader(hello.Bytes())
	// Handle returns once the scripted hello has run out and the round is
	// over; by then both the ack and the push were written.
	_ = srv.Handle(conn)
	if conn.roundErr != nil {
		t.Fatalf("the interleaved round: %v", conn.roundErr)
	}

	wire := bytes.NewReader(conn.out.Bytes())
	if err := rawReadAck(wire); err != nil {
		t.Fatalf("first bytes on the wire are not the ack: %v (wire % x)", err, conn.out.Bytes())
	}
	if got := srv.metrics.pushErrors.Value(); got != 0 {
		t.Errorf("dps_push_errors_total = %d, want 0", got)
	}
	if wire.Len() != 8+units*proto.RecordSize {
		t.Errorf("%d bytes follow the ack, want one %d-unit cap batch", wire.Len(), units)
	}
}
