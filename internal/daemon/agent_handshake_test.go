package daemon

import (
	"errors"
	"net"
	"testing"
	"time"

	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

// brokenDevice fails every energy read, simulating a RAPL counter that
// disappears (e.g. a sysfs file going away) between dial and priming.
type brokenDevice struct{}

func (brokenDevice) EnergyMicroJoules() (uint64, error) { return 0, errors.New("counter gone") }
func (brokenDevice) SetCap(power.Watts) error           { return nil }
func (brokenDevice) Cap() (power.Watts, error)          { return 165, nil }
func (brokenDevice) MaxPower() power.Watts              { return 165 }
func (brokenDevice) MinPower() power.Watts              { return 10 }

var _ rapl.Device = brokenDevice{}

// TestHandshakePrimeFailureCleansUp pins the reconnect-safety contract: a
// meter-priming failure during Handshake must close the socket and leave
// the agent disconnected, so RunWithReconnectAddrs's next attempt starts
// from a clean dial instead of reusing a half-open session the server
// still has registered.
func TestHandshakePrimeFailureCleansUp(t *testing.T) {
	a, err := NewAgent(AgentConfig{
		FirstUnit: 0,
		Devices:   []rapl.Device{brokenDevice{}},
		Interval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	agentSide, serverSide := net.Pipe()
	defer serverSide.Close()
	// Fake the server half of the handshake: accept the hello, ack it.
	srvErr := make(chan error, 1)
	go func() {
		if _, err := proto.ReadHello(serverSide); err != nil {
			srvErr <- err
			return
		}
		srvErr <- rawWriteAck(serverSide)
	}()

	if err := a.Handshake(agentSide); err == nil {
		t.Fatal("Handshake succeeded despite a broken meter")
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("fake server: %v", err)
	}
	if a.conn != nil {
		t.Error("failed Handshake left a.conn set")
	}
	if err := a.ReportOnce(1); err == nil {
		t.Error("ReportOnce succeeded on a disconnected agent")
	}
	// The socket must actually be closed, not just forgotten: the server
	// side sees EOF instead of hanging on a half-open connection.
	serverSide.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := serverSide.Read(buf); err == nil {
		t.Error("agent socket still open after failed handshake")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Error("agent socket left half-open (read timed out instead of EOF)")
	}
}
