package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/section"
	"dps/internal/snapshot"
)

// This file is the warm-standby half of the high-availability plane
// (DESIGN.md §14). A standby dpsd runs the same Server the primary does,
// but instead of serving agents it dials the primary with a Replicate
// hello and follows it as a replicated state machine: one full snapshot
// image on connect, restored into the live server at once, then one
// frame per primary round carrying that round's inputs, which the
// standby feeds to its own controller. Every frame ends in a digest of
// the caps the primary delivered; a standby that computes anything else
// (or misses a round, or cannot parse a frame) stops trusting its state,
// drops the link and resyncs from a fresh image. When the link to the
// primary dies while the standby is in sync, there is nothing left to
// restore: it opens its agent listener and starts deciding, so agents
// cycling their reconnect address list land on it within one backoff.

// standbyRedialWait bounds the reconnect backoff while a standby cannot
// reach its primary before first sync.
const standbyRedialWait = 2 * time.Second

// RunStandby follows the primary named by StandbyOf until the link to it
// is lost, then takes over: it serves agents, from the replicated state
// it already holds, on the listener that listen opens. The listener is
// created only at takeover — until then agents probing this address get
// a refused connection and rotate back to the primary. A standby whose
// state failed a check never takes over; it keeps redialling for a fresh
// image instead.
//
// Returns nil when ctx is cancelled before a takeover, and an error when
// the primary's state does not fit this server (unit count, seed, unit
// bounds: a deployment mistake no retry fixes). After a takeover it
// behaves exactly like Serve, and ctx is no longer consulted — the
// caller stops it with Close plus closing the listener, as for any
// server.
func (s *Server) RunStandby(ctx context.Context, listen func() (net.Listener, error)) error {
	if s.cfg.StandbyOf == "" {
		return fmt.Errorf("daemon: RunStandby without StandbyOf")
	}
	var (
		frameBuf []byte              // ReadStateFrame reuse
		input    snapshot.RoundInput // FrameDelta decode target, reused
		synced   bool                // the live state is the primary's, verified
		misfit   error               // a valid image this server cannot hold
	)
	for {
		if ctx.Err() != nil {
			return nil
		}
		conn, err := s.dialStandby()
		if err != nil {
			s.logf("daemon: standby: dialing primary %s: %v", s.cfg.StandbyOf, err)
			if synced {
				return s.takeOver(listen)
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

		diverged := false
		for !diverged {
			var frame byte
			var payload []byte
			frame, payload, frameBuf, err = proto.ReadStateFrame(conn, frameBuf)
			if err != nil {
				break
			}
			switch frame {
			case proto.FrameSnapshot:
				if err, misfit = s.adoptImage(payload); err != nil {
					s.logf("daemon: standby: rejecting snapshot from primary: %v", err)
					break
				}
				if err = misfit; err != nil {
					break
				}
				synced = true
				s.metrics.standbyLag.Set(0)
				s.logf("daemon: standby: synced full state (round %d, %d units, %d bytes)%s",
					s.rounds.Load(), s.cfg.Units, len(payload), s.primaryBudgetNote())
			case proto.FrameDelta:
				if !synced {
					continue // inputs for a state we never saw are noise
				}
				if err = s.followRound(payload, &input); err != nil {
					// Not the primary dying: our copy is no longer provably
					// its state. Never take over from it.
					s.metrics.divergence.Inc()
					s.logf("daemon: standby: resyncing: %v", err)
					synced, diverged = false, true
				}
			}
			if err != nil {
				break
			}
		}
		sess.Release()
		stop()
		conn.Close()
		switch {
		case ctx.Err() != nil:
			return nil
		case misfit != nil:
			return fmt.Errorf("daemon: standby: primary's state does not fit this server: %w", misfit)
		case synced:
			return s.takeOver(listen)
		case diverged:
			continue // redial at once for a fresh image
		}
		s.logf("daemon: standby: link to primary lost before first sync: %v", err)
		if !sleepCtx(ctx, standbyRedialWait) {
			return nil
		}
	}
}

// adoptImage installs a FrameSnapshot payload on a following standby
// through RestoreFromSnapshot's gate: the image is verified whole and
// checked against this server before any of it is written, straight
// into the live state. bad reports an image that does not parse (a
// primary bug or a torn stream; following it would poison a takeover),
// misfit a sound one this server cannot hold; either touches nothing.
func (s *Server) adoptImage(payload []byte) (bad, misfit error) {
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	fp, err := snapshot.Verify(payload)
	if err != nil {
		return err, nil
	}
	if !fp.HasDaemon {
		return errors.New("no daemon section"), nil
	}
	if err := s.fits(fp); err != nil {
		return nil, err
	}
	saved := time.UnixMilli(fp.SavedUnixMS)
	s.install(payload, saved)
	s.noteBudget()
	s.followStamp = saved
	return nil, nil
}

// followRound applies one FrameDelta: it decodes the primary's round
// input, installs it as DecideOnce's snapshot would be, and replays the
// round through the engine's Follow, then commits what the agents took —
// minus everything outward-facing (no pushes, no round record, no metrics
// but the lag gauge). An error means this server's state can no longer be
// vouched for: a frame that does not parse, a gap in the round sequence,
// or a round Follow refuses.
func (s *Server) followRound(payload []byte, in *snapshot.RoundInput) error {
	round, sections, err := proto.DeltaRound(payload)
	if err != nil {
		return err
	}
	w := section.Walk(sections)
	if !w.Next() || w.ID != snapshot.SecRoundInput || len(w.Rest) != 0 {
		return fmt.Errorf("round %d: frame is not one round-input section (%v)", round, w.Stop)
	}
	if err := snapshot.DecodeRoundInput(in, w.Payload, s.cfg.Units); err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}

	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	// Consecutive rounds have lag 0; the gauge surfaces skipped rounds,
	// which with one frame per round means frames lost to the transport.
	last := s.rounds.Load()
	if round > last {
		s.metrics.standbyLag.Set(float64(round - last - 1))
	}
	if round != last+1 {
		return fmt.Errorf("round %d follows round %d", round, last)
	}
	if !in.HasHealth {
		return fmt.Errorf("round %d: the input carries no health", round)
	}
	saved := time.UnixMilli(in.SavedUnixMS)
	s.imu.Lock()
	for wi, w := range in.Dirty {
		for ; w != 0; w &= w - 1 {
			u := wi<<6 | bits.TrailingZeros64(w)
			s.readings[u] = in.Readings[u]
		}
	}
	copy(s.snapBuf, s.readings)
	for u, age := range in.ReportAgeMS[:len(s.lastReport)] {
		s.lastReport[u] = saved.Add(-time.Duration(age) * time.Millisecond)
	}
	s.imu.Unlock()
	s.followStamp = saved
	s.dirtyBuf.SetWords(in.Dirty)
	for u := range s.healthBuf {
		s.healthBuf[u] = core.UnitHealth(in.Health[u])
	}

	snap := core.Snapshot{Power: s.snapBuf, Interval: in.Interval, Health: s.healthBuf, Dirty: s.dirtyBuf}
	d, _, err := s.eng.Follow(snap, in.BudgetTotal, in.Digest)
	s.noteBudget()
	if err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}

	s.mu.Lock()
	copy(s.health, s.healthBuf)
	s.eng.Commit(d.Delivered, in.Pushed)
	// Replayed rounds are the primary's, not this process's uptime.
	s.rounds.Store(round)
	s.inheritedRounds.Store(round)
	s.mu.Unlock()
	return nil
}

func (s *Server) dialStandby() (net.Conn, error) {
	dial := s.dial
	if dial == nil {
		dial = net.Dial
	}
	return dial("tcp", s.cfg.StandbyOf)
}

// takeOver is "stop following, start deciding": the state is already
// live, so all that is left is to move the staleness clocks from the
// primary's time base onto this host's — report ages stay what they were
// when the primary last spoke — mark the readings the replayed rounds left
// changed against what the controller consumed, and serve agents. Every
// unit stays gone, as the synced image left it, until its agent
// registers here.
func (s *Server) takeOver(listen func() (net.Listener, error)) error {
	s.roundMu.Lock()
	shift := s.now().Sub(s.followStamp)
	s.imu.Lock()
	for u := range s.lastReport {
		s.lastReport[u] = s.lastReport[u].Add(shift)
	}
	s.markChangedLocked()
	s.imu.Unlock()
	s.roundMu.Unlock()
	s.metrics.failovers.Inc()
	s.logf("daemon: standby: primary gone, taking over at round %d (%d units)%s", s.rounds.Load(), s.cfg.Units, s.primaryBudgetNote())
	l, err := listen()
	if err != nil {
		return fmt.Errorf("daemon: standby takeover: listener: %w", err)
	}
	return s.Serve(l)
}

// primaryBudgetNote names the budget a standby holds when it is not its
// own configured one: it follows the primary's (DESIGN.md §9), and
// keeps it past a takeover. Empty when the two agree.
func (s *Server) primaryBudgetNote() string {
	held := power.Watts(math.Float64frombits(s.budgetW.Load()))
	if held == s.configuredBudget {
		return ""
	}
	return fmt.Sprintf("; holding the primary's %v W budget, not the configured %v W", held, s.configuredBudget)
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
