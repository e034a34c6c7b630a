package daemon

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"dps/internal/proto"
)

// TestLegacyDialectsRefused pins the one wire dialect against a live
// server: a version-1 hello, a version-2 hello with any flags (refused on
// its first 8 bytes, before any ack, so no round-prefixed cap batch ever
// reaches an agent that did not ask for one), a hello carrying the
// retired batch bit, and a 'R' report frame or raw records on an
// established session are each refused, with the connection closed and no
// unit left claimed.
func TestLegacyDialectsRefused(t *testing.T) {
	srv := newTestServer(t, 2)
	hello := func(version, flags byte) []byte {
		return []byte{'D', 'P', 'S', '1', version, 0, 0, 2, flags}
	}
	records := []byte{0, 0x04, 0x50, 1, 0x04, 0x50} // units 0 and 1 at 110.4 W
	for _, c := range []struct {
		name         string
		hello, after []byte // after is sent once the hello is acknowledged
	}{
		{"version-1 hello", hello(1, 0)[:8], nil},
		{"version-2 hello", hello(2, 0)[:8], nil},
		{"version-2 echo+ctx hello", hello(2, 0x09)[:8], nil},
		{"retired batch bit", hello(proto.Version, 1<<1), nil},
		{"'R' report frame", hello(proto.Version, 0), append([]byte{'R'}, records...)},
		{"raw records", hello(proto.Version, 0), records},
	} {
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(server) }()
		if _, err := client.Write(c.hello); err != nil {
			t.Fatalf("%s: writing the hello: %v", c.name, err)
		}
		if c.after != nil {
			if err := rawReadAck(client); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := client.Write(c.after); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: Handle returned nil", c.name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: the server is still serving the connection", c.name)
		}
		if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("%s: connection not closed after the refusal (read: %v)", c.name, err)
		}
		if got := srv.Connected(); got != 0 {
			t.Errorf("%s: Connected = %d after the refusal, want 0", c.name, got)
		}
		client.Close()
	}

	// No unit was left claimed: a current agent takes the whole range.
	agent, _ := newTestAgent(t, 0, 2)
	client, server := net.Pipe()
	defer client.Close()
	go srv.Handle(server)
	if err := agent.Handshake(client); err != nil {
		t.Fatalf("agent refused after the legacy sessions: %v", err)
	}
}
