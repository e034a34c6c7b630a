package faultinject

import (
	"math/rand"
	"net"
	"sync"
)

// ConnConfig schedules faults on a wrapped connection. Probabilities are
// evaluated per operation (one Read or Write call) from the seeded
// stream; count-based triggers fire deterministically on the Nth
// operation. The zero value injects nothing.
type ConnConfig struct {
	// Seed drives the fault schedule. Two conns with the same seed and
	// config inject identically.
	Seed int64

	// DropProb closes the connection on an operation with this
	// probability; the operation fails with ErrDropped.
	DropProb float64
	// DropAfterOps closes the connection deterministically once this many
	// operations have completed (0 = never).
	DropAfterOps int

	// TruncateProb makes a Write send only a prefix of its buffer and
	// fail with ErrTruncated, leaving the peer mid-frame.
	TruncateProb float64

	// PartitionAfterOps blackholes the connection once this many
	// operations have completed (0 = never): writes report success
	// without sending and reads block until the connection is closed —
	// a hung link, exactly the failure a server-side read deadline must
	// reap. A partition does not heal; recovery is a new connection.
	PartitionAfterOps int
}

// Conn wraps a net.Conn with the configured fault schedule. It is safe
// for the two-goroutine use the daemon's agent makes of a connection
// (one reader, one writer).
type Conn struct {
	net.Conn
	cfg      ConnConfig
	counters *Counters

	mu          sync.Mutex
	rng         *rand.Rand
	ops         int
	partitioned bool

	closeOnce sync.Once
	closed    chan struct{}
}

// WrapConn wraps inner with the fault schedule in cfg. counters may be
// nil.
func WrapConn(inner net.Conn, cfg ConnConfig, counters *Counters) *Conn {
	return &Conn{
		Conn:     inner,
		cfg:      cfg,
		counters: counters,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		closed:   make(chan struct{}),
	}
}

// connAction is the fault decision for one operation.
type connAction int

const (
	actNone connAction = iota
	actDrop
	actPartition
)

// decide consumes the operation's slot in the fault schedule. Exactly one
// action fires per operation so schedules stay easy to reason about.
func (c *Conn) decide(write bool) (connAction, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.partitioned {
		return actPartition, false
	}
	if c.cfg.PartitionAfterOps > 0 && c.ops > c.cfg.PartitionAfterOps {
		c.partitioned = true
		c.counters.incConnPartition()
		return actPartition, false
	}
	if c.cfg.DropAfterOps > 0 && c.ops > c.cfg.DropAfterOps {
		return actDrop, false
	}
	if c.cfg.DropProb > 0 && c.rng.Float64() < c.cfg.DropProb {
		return actDrop, false
	}
	truncate := false
	if write && c.cfg.TruncateProb > 0 && c.rng.Float64() < c.cfg.TruncateProb {
		truncate = true
	}
	return actNone, truncate
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	act, _ := c.decide(false)
	switch act {
	case actDrop:
		c.counters.incConnDrop()
		c.Close()
		return 0, ErrDropped
	case actPartition:
		// A partitioned read hangs like a dead link: nothing arrives until
		// someone closes the connection.
		<-c.closed
		return 0, ErrDropped
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	act, truncate := c.decide(true)
	switch act {
	case actDrop:
		c.counters.incConnDrop()
		c.Close()
		return 0, ErrDropped
	case actPartition:
		// A partitioned write is silently swallowed — the sender cannot
		// tell; only the receiver's staleness clock can.
		return len(p), nil
	}
	if truncate && len(p) > 1 {
		c.counters.incConnTruncate()
		n, err := c.Conn.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, ErrTruncated
	}
	return c.Conn.Write(p)
}

// Close implements net.Conn, releasing any partitioned operations.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Partitioned reports whether the connection is blackholed.
func (c *Conn) Partitioned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partitioned
}
