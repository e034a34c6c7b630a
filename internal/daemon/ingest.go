package daemon

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/trace"
)

type serverConn struct {
	conn    net.Conn
	sess    *proto.Session
	hello   proto.Hello
	writeMu sync.Mutex

	// Apply echo bookkeeping: the reading snapshot time and round of the
	// last cap push, so an inbound echo can be turned into a
	// reading→enforced-cap latency on the server's own clock. Atomics:
	// stored by the decision loop, read by the connection's Handle
	// goroutine.
	lastSnapNano  atomic.Int64
	lastPushRound atomic.Uint64
}

// release returns the session's pooled buffers under writeMu. DecideOnce
// pushes to a target list it snapshotted before deciding, so a push may
// still be writing through those buffers when the connection's Handle
// goroutine tears down: the lock lets it finish first, and any later push
// finds the session released and fails (a counted push error) instead of
// writing into buffers the pool has handed to another session.
func (sc *serverConn) release() {
	sc.writeMu.Lock()
	sc.sess.Release()
	sc.writeMu.Unlock()
}

// maxReading resolves the inbound reading ceiling.
func (s *Server) maxReading() power.Watts {
	if s.cfg.MaxReading > 0 {
		return s.cfg.MaxReading
	}
	return 2 * s.unitMax
}

// Handle serves one agent connection: handshake, then a frame-reading
// loop until the connection fails or the server closes. It blocks; run it
// in its own goroutine per connection (Serve does).
func (s *Server) Handle(conn net.Conn) error {
	s.armReadDeadline(conn)
	sess, err := proto.Accept(conn)
	if err != nil {
		conn.Close()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.metrics.reaps.Inc()
		}
		return err
	}
	hello := sess.Hello()
	if hello.Replicate {
		// Not an agent at all: a warm standby subscribing to the state
		// stream. It claims no units and sends no frames.
		return s.handleReplica(conn, sess)
	}
	sc := &serverConn{conn: conn, sess: sess, hello: hello}
	// Registration makes the connection a push target; holding its write
	// lock until the ack is out makes a decision round landing in between
	// wait with its cap batch instead of writing it ahead of the ack.
	sc.writeMu.Lock()
	if err := s.register(sc); err != nil {
		sc.writeMu.Unlock()
		sess.Release()
		conn.Close()
		return err
	}
	err = sess.Ack(s.cfg.DeltaEpsilon)
	sc.writeMu.Unlock()
	if err != nil {
		s.unregister(sc)
		sc.release()
		conn.Close()
		return err
	}
	s.logf("daemon: agent connected, units [%d,%d)", hello.FirstUnit, int(hello.FirstUnit)+hello.Units)

	defer func() {
		s.unregister(sc)
		conn.Close()
		sc.release()
		s.logf("daemon: agent for units [%d,%d) disconnected", hello.FirstUnit, int(hello.FirstUnit)+hello.Units)
	}()
	for {
		if err := s.serveFrame(sc); err != nil {
			return s.connReadErr(hello, err)
		}
	}
}

// serveFrame reads and dispatches one upstream frame from a connection:
// the hot receive path, factored out of Handle's loop so tests can drive
// it synchronously and pin its per-reading allocation cost (zero, once
// the session is warm).
func (s *Server) serveFrame(sc *serverConn) error {
	s.armReadDeadline(sc.conn)
	frame, err := sc.sess.ReadFrame()
	if err != nil {
		return err
	}
	switch frame.Kind {
	case proto.KindApply:
		s.observeApplyEcho(sc, frame.ApplyDur)
	case proto.KindHeartbeat:
		// Touch before counting: once the counter is visible, the clock
		// refresh is too (tests synchronize on the counters).
		s.touchUnits(sc.hello)
		s.metrics.ingestHeartbeats.Inc()
	default:
		s.ingest(sc, frame)
	}
	return nil
}

// ingest lands one batch frame in the front reading buffer.
//
// Staleness-clock rule: a frame refreshes the clock of every unit it
// carries an *accepted* record for, and of every unit it omits: omission
// is the agent asserting "unchanged within epsilon", which is live
// information. A unit whose record is rejected by the sanitizer gets no
// refresh from its own garbage, nor from omissions until a record is
// accepted again (s.refused): the epsilon an omission asserts is around
// the refused value, so a garbage-reporting agent quarantines itself into
// the stale state whether its garbage varies or not.
func (s *Server) ingest(sc *serverConn, frame proto.Frame) {
	traceOn := s.tracer.On()
	var ingestStart time.Time
	if traceOn {
		ingestStart = time.Now()
	}
	hello := sc.hello
	first := int(hello.FirstUnit)
	var now time.Time
	if s.lastReport != nil {
		now = s.now()
	}
	ceiling := s.maxReading()
	s.imu.Lock()
	// Records arrive strictly increasing (the canonical encoding), so one
	// walk covers both the carried units and the suppressed gaps between
	// them.
	next := 0
	for _, rec := range frame.Records {
		lu := int(rec.LocalUnit)
		if s.lastReport != nil {
			s.touchRangeLocked(first+next, first+lu, now)
		}
		next = lu + 1
		u := first + lu
		v := proto.FromDeciwatts(rec.Value)
		if badReading(v, ceiling) {
			s.metrics.badReadings.Inc()
			if s.refused != nil {
				s.refused[u>>6] |= 1 << (u & 63)
			}
			continue
		}
		s.readings[u] = v
		s.dirty.Mark(u)
		if s.lastReport != nil {
			s.lastReport[u] = now
			s.refused[u>>6] &^= 1 << (u & 63)
		}
	}
	if s.lastReport != nil {
		s.touchRangeLocked(first+next, first+hello.Units, now)
	}
	s.imu.Unlock()
	s.metrics.ingestBatches.Inc()
	s.metrics.ingestRecords.Add(uint64(len(frame.Records)))
	if traceOn {
		// the decision round this frame will feed
		round := s.rounds.Load() + 1
		s.tracer.Record(round, trace.SpanIngest, trace.LaneIngest,
			int32(hello.FirstUnit), ingestStart, time.Since(ingestStart))
	}
}

// touchUnits refreshes the staleness clock for every unit of a
// connection — a heartbeat's whole meaning: alive, readings stand.
func (s *Server) touchUnits(hello proto.Hello) {
	if s.lastReport == nil {
		return
	}
	now := s.now()
	first := int(hello.FirstUnit)
	s.imu.Lock()
	s.touchRangeLocked(first, first+hello.Units, now)
	s.imu.Unlock()
}

// touchRangeLocked refreshes the staleness clocks of units [lo, hi) but
// those whose latest record was refused. Clocks are on; caller holds imu.
func (s *Server) touchRangeLocked(lo, hi int, now time.Time) {
	for u := lo; u < hi; u++ {
		if s.refused[u>>6]&(1<<(u&63)) == 0 {
			s.lastReport[u] = now
		}
	}
}

// connReadErr classifies a failed read on an established agent
// connection: nil on server shutdown, a reap on idle timeout (so the
// units can be re-claimed by a fresh session instead of staying owned by
// a hung socket forever), the error itself otherwise.
func (s *Server) connReadErr(hello proto.Hello, err error) error {
	if s.isClosed() {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.metrics.reaps.Inc()
		return fmt.Errorf("daemon: reaping idle agent for units [%d,%d): %w",
			hello.FirstUnit, int(hello.FirstUnit)+hello.Units, err)
	}
	return err
}

// observeApplyEcho turns an agent's cap-apply acknowledgement into the
// end-to-end latency sample the paper's deployment section asks for:
// reading snapshot → caps enforced on the node, both endpoints stamped on
// the server's clock so no cross-machine clock sync is needed. Echoes
// arriving before the connection's first cap push carry no reference
// snapshot and are dropped.
func (s *Server) observeApplyEcho(sc *serverConn, applyDur time.Duration) {
	snapNano := sc.lastSnapNano.Load()
	if snapNano == 0 {
		return
	}
	now := s.now()
	e2e := max(now.Sub(time.Unix(0, snapNano)), 0)
	s.metrics.e2eLatency.Observe(e2e.Seconds())
	if s.tracer.On() {
		s.tracer.Record(sc.lastPushRound.Load(), trace.SpanApply, trace.LaneAgent,
			int32(sc.hello.FirstUnit), now.Add(-applyDur), applyDur)
	}
}

// armReadDeadline applies the configured idle read deadline to conn, or
// clears it when disabled.
func (s *Server) armReadDeadline(conn net.Conn) {
	if t := s.cfg.ReadIdleTimeout; t > 0 {
		conn.SetReadDeadline(time.Now().Add(t))
	}
}

// badReading reports whether an inbound power report is garbage the
// boundary must reject: NaN, ±Inf, negative, or above the ceiling.
func badReading(v, ceiling power.Watts) bool {
	f := float64(v)
	return math.IsNaN(f) || math.IsInf(f, 0) || v < 0 || v > ceiling
}

func (s *Server) register(sc *serverConn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("daemon: server closed")
	}
	first, n := int(sc.hello.FirstUnit), sc.hello.Units
	if first+n > len(s.owner) {
		return fmt.Errorf("daemon: agent claims units [%d,%d) beyond the configured %d", first, first+n, len(s.owner))
	}
	for u := first; u < first+n; u++ {
		if s.owner[u] != nil {
			return fmt.Errorf("daemon: unit %d already owned by another agent", u)
		}
	}
	for u := first; u < first+n; u++ {
		s.owner[u] = sc
	}
	// A (re-)handshake ends the units' orphanhood and restarts their
	// staleness clock, so they are fresh again by the next decision round,
	// before the first report even lands — but for a unit whose latest
	// record was refused, which waits for an accepted one. (Lock order: mu held, imu nested
	// inside.)
	s.imu.Lock()
	for wi := first >> 6; wi<<6 < first+n; wi++ {
		s.gone[wi] &^= core.WordMaskForRange(first, first+n, wi<<6)
	}
	s.imu.Unlock()
	s.touchUnits(sc.hello)
	i, _ := s.connIndex(sc)
	s.conns = slices.Insert(slices.Clone(s.conns), i, sc)
	s.metrics.connects.Inc()
	s.metrics.agents.Set(float64(len(s.conns)))
	return nil
}

// connIndex returns sc's place in s.conns by first unit, and whether sc
// itself is registered there. Caller holds s.mu.
func (s *Server) connIndex(sc *serverConn) (int, bool) {
	i, _ := slices.BinarySearchFunc(s.conns, sc.hello.FirstUnit, func(c *serverConn, first power.UnitID) int {
		return cmp.Compare(c.hello.FirstUnit, first)
	})
	return i, i < len(s.conns) && s.conns[i] == sc
}

func (s *Server) unregister(sc *serverConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.orphanLocked(sc)
	first, n := int(sc.hello.FirstUnit), sc.hello.Units
	for u := first; u < first+n; u++ {
		if s.owner[u] == sc {
			s.owner[u] = nil
		}
	}
	if i, ok := s.connIndex(sc); ok {
		s.conns = slices.Delete(slices.Clone(s.conns), i, i+1)
		s.metrics.disconnects.Inc()
		s.metrics.agents.Set(float64(len(s.conns)))
	}
}

// orphanLocked marks gone the units sc still owns: its connection closed,
// was reaped, or failed a cap push, so nothing answers for their devices,
// which keep the cap last pushed. Units an agent has registered for since
// stay as they are. Caller holds s.mu.
func (s *Server) orphanLocked(sc *serverConn) {
	first, n := int(sc.hello.FirstUnit), sc.hello.Units
	s.imu.Lock()
	for u := first; u < first+n; u++ {
		if s.owner[u] == sc {
			s.gone[u>>6] |= 1 << (u & 63)
		}
	}
	s.imu.Unlock()
}
