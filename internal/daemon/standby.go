package daemon

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"dps/internal/core"
	"dps/internal/proto"
	"dps/internal/section"
	"dps/internal/snapshot"
)

// This file is the warm-standby half of the high-availability plane
// (DESIGN.md §14). A standby dpsd runs the same Server the primary does,
// but instead of serving agents it dials the primary with a Replicate
// hello and follows its state: one full snapshot image on connect, then
// one delta frame per primary round carrying only the sections that
// round changed. The standby keeps the latest raw section framings by
// id; when the link to the primary dies after at least one full sync,
// it assembles the overlay into a snapshot image, restores itself from
// it, and takes over — opening its agent listener only then, so agents
// cycling their reconnect address list land on it within one backoff.

// standbyRedialWait bounds the reconnect backoff while a standby cannot
// reach its primary before first sync.
const standbyRedialWait = 2 * time.Second

// RunStandby follows the primary named by StandbyOf until the link to it
// is lost, then takes over: it restores the server from the replicated
// state and serves agents on the listener that listen opens. The
// listener is created only at takeover — until then agents probing this
// address get a refused connection and rotate back to the primary.
//
// Returns nil when ctx is cancelled before a takeover. After a takeover
// it behaves exactly like Serve, and ctx is no longer consulted — the
// caller stops it with Close plus closing the listener, as for any
// server.
func (s *Server) RunStandby(ctx context.Context, listen func() (net.Listener, error)) error {
	if s.cfg.StandbyOf == "" {
		return fmt.Errorf("daemon: RunStandby without StandbyOf")
	}
	var (
		frameBuf  []byte                // ReadStateFrame reuse
		secs      = map[uint16][]byte{} // latest raw section framing by id
		scratch   snapshot.State        // decode target, reused
		synced    bool                  // at least one full image validated
		lastRound uint64                // primary round of the last frame
	)
	for {
		if ctx.Err() != nil {
			return nil
		}
		conn, err := s.dialStandby()
		if err != nil {
			s.logf("daemon: standby: dialing primary %s: %v", s.cfg.StandbyOf, err)
			if synced {
				return s.takeOver(&scratch, secs, lastRound, listen)
			}
			if !sleepCtx(ctx, standbyRedialWait) {
				return nil
			}
			continue
		}
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		sess, err := proto.Connect(conn, proto.Hello{FirstUnit: 0, Units: 1, Replicate: true})
		if err != nil {
			stop()
			conn.Close()
			s.logf("daemon: standby: handshake with primary %s: %v", s.cfg.StandbyOf, err)
			if !sleepCtx(ctx, standbyRedialWait) {
				return nil
			}
			continue
		}
		s.logf("daemon: standby: following primary %s", s.cfg.StandbyOf)

		for {
			var frame byte
			var payload []byte
			frame, payload, frameBuf, err = proto.ReadStateFrame(conn, frameBuf)
			if err != nil {
				break
			}
			switch frame {
			case proto.FrameSnapshot:
				// Validate the complete image before adopting anything from
				// it: a snapshot that does not decode is a primary bug or a
				// torn stream, and following it would poison a takeover.
				if err = snapshot.DecodeInto(&scratch, payload); err != nil {
					s.logf("daemon: standby: rejecting snapshot from primary: %v", err)
					break
				}
				clear(secs)
				overlaySections(secs, payload[snapshot.HeaderSize:])
				synced = true
				lastRound = scratch.Rounds
				s.metrics.standbyLag.Set(0)
				s.logf("daemon: standby: synced full state (round %d, %d units, %d bytes)",
					scratch.Rounds, scratch.Units, len(payload))
			case proto.FrameDelta:
				if !synced {
					continue // deltas against state we never saw are noise
				}
				var round uint64
				var sections []byte
				round, sections, err = proto.DeltaRound(payload)
				if err != nil {
					break
				}
				overlaySections(secs, sections)
				// Consecutive rounds have lag 0; the gauge surfaces skipped
				// rounds, which with a per-round delta stream means frames
				// lost to the transport.
				if round > lastRound {
					s.metrics.standbyLag.Set(float64(round - lastRound - 1))
				}
				lastRound = round
			}
			if err != nil {
				break
			}
		}
		sess.Release()
		stop()
		conn.Close()
		if ctx.Err() != nil {
			return nil
		}
		if synced {
			return s.takeOver(&scratch, secs, lastRound, listen)
		}
		s.logf("daemon: standby: link to primary lost before first sync: %v", err)
		if !sleepCtx(ctx, standbyRedialWait) {
			return nil
		}
	}
}

func (s *Server) dialStandby() (net.Conn, error) {
	dial := s.dial
	if dial == nil {
		dial = net.Dial
	}
	return dial("tcp", s.cfg.StandbyOf)
}

// takeOver restores the server from the replicated section overlay and
// serves agents. The overlay is re-assembled into a full image and
// decoded from scratch — every section CRC is re-verified on the way —
// so a delta that slipped in corrupt fails the takeover loudly rather
// than silently running a damaged controller.
func (s *Server) takeOver(st *snapshot.State, secs map[uint16][]byte, round uint64, listen func() (net.Listener, error)) error {
	ids := make([]int, 0, len(secs))
	for id := range secs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	raws := make([][]byte, 0, len(ids))
	for _, id := range ids {
		raws = append(raws, secs[uint16(id)])
	}
	img := snapshot.Assemble(nil, raws...)
	if err := snapshot.DecodeInto(st, img); err != nil {
		return fmt.Errorf("daemon: standby takeover: replicated state: %w", err)
	}
	if st.Units != s.cfg.Units {
		return fmt.Errorf("daemon: standby takeover: primary ran %d units, this server %d", st.Units, s.cfg.Units)
	}
	if s.dps != nil {
		if !st.HasCore {
			return fmt.Errorf("daemon: standby takeover: replicated state carries no controller state")
		}
		if err := s.dps.RestoreState(st); err != nil {
			return fmt.Errorf("daemon: standby takeover: %w", err)
		}
	}
	s.adoptDaemonState(st)
	s.metrics.failovers.Inc()
	s.logf("daemon: standby: primary gone, taking over at round %d (%d units, %d high-priority)",
		round, st.Units, core.ExportedHighCount(st))
	l, err := listen()
	if err != nil {
		return fmt.Errorf("daemon: standby takeover: listener: %w", err)
	}
	return s.Serve(l)
}

// overlaySections stores a private copy of each raw section framing in
// sections (a bare concatenation, no header: a delta frame's payload, or
// a full image past its header) under its id, replacing what was there,
// and stops at a short tail. Unknown ids are stored too: the standby
// faithfully relays forward-compatible sections it cannot interpret into
// its takeover image. CRCs are not checked here — a full image was
// DecodeInto-validated just before, and takeOver re-verifies every
// section of the assembled overlay.
func overlaySections(secs map[uint16][]byte, sections []byte) {
	for w := section.WalkTrusted(sections); w.Next(); {
		secs[w.ID] = append(secs[w.ID][:0], w.Raw...)
	}
}

// sleepCtx sleeps for d or until ctx is done; it reports false when the
// context ended the wait.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
