package daemon

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/snapshot"
)

// This file is the primary's half of the high-availability plane
// (DESIGN.md §14), built on the controller's one absolute invariant: same
// state + same inputs ⇒ same caps, bitwise. After every completed round
// the daemon streams each synced warm standby the round's *inputs* — the
// readings that changed, health, report ages, budget, who took the push —
// and a digest of the outputs; the standby runs its own controller
// forward and checks the digest. The full versioned state image is built
// only when someone needs one: a standby that is not yet synced, the
// snapshot file on its cadence, the final snapshot in Close. Everything
// runs after the caps of the round are already pushed, on the decision
// goroutine, so it never races the manager and never delays a cap
// delivery; all buffers are retained, so a warm replication round
// allocates nothing.

// snapshotEvery resolves the file-write cadence.
func (s *Server) snapshotEvery() uint64 {
	if s.cfg.SnapshotEvery > 0 {
		return uint64(s.cfg.SnapshotEvery)
	}
	return DefaultSnapshotEvery
}

// exportState fills s.snapState with the complete post-round state: the
// manager's controller state when it is a core.DPS (HasCore), and the
// daemon's own round caches either way (HasDaemon) — caps delivered,
// caps enforced, health, report ages, and the ingest front buffer, so a
// restored daemon's first round decides on the primary's readings
// rather than zeros. Runs on the decision goroutine only: the manager
// is quiescent between rounds.
func (s *Server) exportState(round uint64) {
	st := &s.snapState
	if s.dps != nil {
		s.dps.ExportState(st)
	} else {
		b := s.cfg.Manager.Budget()
		st.Units = s.cfg.Units
		st.Seed = 0
		st.BudgetTotal, st.UnitMax, st.UnitMin = b.Total, b.UnitMax, b.UnitMin
		st.Sparse, st.SparseRefreshEvery = false, 0
		st.HasCore = false
	}
	st.HasDaemon = true
	now := s.now()
	st.SavedUnixMS = now.UnixMilli()
	st.Rounds = round

	n := s.cfg.Units
	st.LastCaps = snapshot.Resize(st.LastCaps, n)
	st.LastPushed = snapshot.Resize(st.LastPushed, n)
	st.Health = snapshot.Resize(st.Health, n)
	s.mu.Lock()
	copy(st.LastCaps, s.eng.Prev)
	copy(st.LastPushed, s.eng.Enforced)
	if s.health != nil {
		for u, h := range s.health {
			st.Health[u] = uint8(h)
		}
	} else {
		clear(st.Health)
	}
	s.mu.Unlock()

	st.Readings = snapshot.Resize(st.Readings, n)
	st.ReportAgeMS = snapshot.Resize(st.ReportAgeMS, n)
	s.imu.Lock()
	copy(st.Readings, s.readings)
	if s.lastReport != nil {
		for u := range st.ReportAgeMS {
			age := now.Sub(s.lastReport[u])
			if age < 0 {
				age = 0
			}
			st.ReportAgeMS[u] = uint64(age.Milliseconds())
		}
	} else {
		clear(st.ReportAgeMS)
	}
	s.imu.Unlock()
}

// encodeImage exports the state as of the completed round `round` and
// encodes it into the retained image buffer, which it returns. Caller
// holds snapMu and is the decision goroutine, or holds roundMu.
func (s *Server) encodeImage(round uint64) []byte {
	start := s.now()
	s.exportState(round)
	s.snapEnc = snapshot.Encode(s.snapEnc, &s.snapState)
	s.metrics.snapshotBytes.Set(float64(len(s.snapEnc)))
	s.metrics.snapshotDur.Observe(s.now().Sub(start).Seconds())
	return s.snapEnc
}

// encodeRoundInput builds the FrameDelta payload for the round DecideOnce
// just completed — the 8-byte round prefix plus one input section — from
// the decision loop's own back buffers (still this round's: the next flip
// is the next DecideOnce) and the caps it delivered. pushed masks the
// units whose agent took the push (nil: none).
func (s *Server) encodeRoundInput(round uint64, interval power.Seconds, caps power.Vector, pushed []uint64) {
	in := &s.roundIn
	now := s.now()
	in.Interval = interval
	in.BudgetTotal = s.cfg.Manager.Budget().Total
	in.SavedUnixMS = now.UnixMilli()
	in.Digest = s.eng.Digest(caps)
	in.Dirty, in.Readings = s.dirtyBuf.Words(), s.snapBuf
	in.Pushed = snapshot.Resize(in.Pushed, len(in.Dirty))
	clear(in.Pushed[copy(in.Pushed, pushed):])
	if in.HasHealth = s.healthBuf != nil; in.HasHealth {
		in.Health = snapshot.Resize(in.Health, len(s.healthBuf))
		for u, h := range s.healthBuf {
			in.Health[u] = uint8(h)
		}
		in.ReportAgeMS = snapshot.Resize(in.ReportAgeMS, len(s.lastReport))
		s.imu.Lock()
		for u, t := range s.lastReport {
			in.ReportAgeMS[u] = uint32(min(max(now.Sub(t).Milliseconds(), 0), math.MaxUint32))
		}
		s.imu.Unlock()
	}
	s.inputBuf = append(s.inputBuf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	proto.PutDeltaRound(s.inputBuf, round)
	s.inputBuf = snapshot.AppendRoundInput(s.inputBuf, in)
}

// replicateRound fans the completed round out: the round's inputs as a
// FrameDelta to every synced replica, the full image as a FrameSnapshot
// to replicas that are not, and the image to the snapshot file on its
// cadence. Called by DecideOnce after the round is published; returns at
// once unless a replica is attached or a file write is due.
func (s *Server) replicateRound(round uint64, interval power.Seconds, caps power.Vector, pushed []uint64) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	fileDue := s.cfg.SnapshotPath != "" && (s.lastFileRound == 0 || round-s.lastFileRound >= s.snapshotEvery())
	needInput, needImage := false, fileDue
	for rc := range s.replicas {
		if rc.synced {
			needInput = true
		} else {
			needImage = true
		}
	}
	if needInput {
		s.encodeRoundInput(round, interval, caps, pushed)
	}
	if needImage {
		s.encodeImage(round)
	}

	for rc := range s.replicas {
		var err error
		if rc.synced {
			err = rc.writeFrame(proto.FrameDelta, s.inputBuf)
		} else if err = rc.writeFrame(proto.FrameSnapshot, s.snapEnc); err == nil {
			// Only a core.DPS exports its state. A standby of any other
			// policy cannot run it forward from a known point, so it is
			// never "synced": it gets the daemon's image every round.
			rc.synced = s.dps != nil
		}
		if err != nil {
			s.logf("daemon: dropping standby %v: %v", rc.conn.RemoteAddr(), err)
			rc.conn.Close()
			delete(s.replicas, rc)
		}
	}

	if fileDue {
		if err := writeFileAtomic(s.cfg.SnapshotPath, s.snapEnc); err != nil {
			s.logf("daemon: snapshot write: %v", err)
		} else {
			s.lastFileRound = round
		}
	}
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so a crash mid-write can never leave a torn snapshot where the
// next boot's -restore-from will find it.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// RestoreFromSnapshot loads a snapshot file into the server: the
// controller's state (required when the manager is a core.DPS) and the
// daemon's round caches, health clocks, and reading buffer. It must be
// called after NewServer and before any decision round — dpsd calls it
// at boot when -restore-from is set. Stale (older than
// DefaultSnapshotMaxAge by its own save stamp), corrupt, or mismatched
// files are rejected with an error and the server is left in its
// fresh-boot state.
func (s *Server) RestoreFromSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("daemon: reading snapshot: %w", err)
	}
	// The image is decoded into the state the export side retains, so the
	// columns a restore fills are the ones the first image written
	// afterwards reuses, not a second copy of them.
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	st := &s.snapState
	if err := snapshot.DecodeInto(st, data); err != nil {
		return fmt.Errorf("daemon: snapshot %s: %w", path, err)
	}
	if st.HasDaemon {
		if age := s.now().Sub(time.UnixMilli(st.SavedUnixMS)); age > DefaultSnapshotMaxAge {
			return fmt.Errorf("daemon: snapshot %s is stale: saved %v ago, limit %v", path, age.Round(time.Second), DefaultSnapshotMaxAge)
		}
	}
	if err := s.restoreState(st, s.now()); err != nil {
		return fmt.Errorf("daemon: snapshot %s: %w", path, err)
	}
	s.logf("daemon: restored state from %s: round %d, %d units, %d high-priority (saved %s)",
		path, st.Rounds, st.Units, core.ExportedHighCount(st),
		time.UnixMilli(st.SavedUnixMS).UTC().Format(time.RFC3339))
	return nil
}

// restoreState installs a decoded image: the controller's state (required
// when the manager is a core.DPS; every identity check runs before
// anything is touched) and then the daemon's section. anchor is the time,
// on whatever clock the staleness clocks are to run on, at which the
// image's report ages held.
func (s *Server) restoreState(st *snapshot.State, anchor time.Time) error {
	if st.Units != s.cfg.Units {
		return fmt.Errorf("image is for %d units, server has %d", st.Units, s.cfg.Units)
	}
	if s.dps != nil {
		if !st.HasCore {
			return errors.New("image carries no controller state")
		}
		if err := s.dps.RestoreState(st); err != nil {
			return err
		}
	}
	s.adoptDaemonState(st, anchor)
	return nil
}

// adoptDaemonState installs a snapshot's daemon section: the round
// counter (continued, with the inherited count recorded for the
// uptime_rounds/state_age_rounds split), the delivered- and enforced-cap
// caches the degraded-mode pins reference, health states, staleness
// clocks rebuilt from relative report ages, and the ingest front
// buffer. The ingest dirty mask is fully set afterwards: the mask's
// clear-bit guarantee ("byte-identical to the previous snapshot") is
// meaningless across a process boundary, and a full mask is the
// bitwise-safe superset.
func (s *Server) adoptDaemonState(st *snapshot.State, anchor time.Time) {
	if !st.HasDaemon {
		return
	}
	s.inheritedRounds.Store(st.Rounds)
	s.rounds.Store(st.Rounds)

	s.mu.Lock()
	copy(s.eng.Prev, st.LastCaps)
	copy(s.eng.Enforced, st.LastPushed)
	if s.health != nil && len(st.Health) == len(s.health) {
		for u, h := range st.Health {
			if h > uint8(core.HealthDead) {
				h = uint8(core.HealthDead)
			}
			s.health[u] = core.UnitHealth(h)
		}
	}
	s.mu.Unlock()

	s.imu.Lock()
	copy(s.readings, st.Readings)
	if s.lastReport != nil && len(st.ReportAgeMS) == len(s.lastReport) {
		for u, age := range st.ReportAgeMS {
			s.lastReport[u] = anchor.Add(-time.Duration(age) * time.Millisecond)
		}
	}
	s.dirty.SetAll()
	s.imu.Unlock()
}

// handleReplica serves one warm-standby connection: acknowledge the
// handshake, hand the connection to the replication plane (the decision
// loop sends the full image on the next round, round inputs after), and block
// until the standby disconnects. The standby sends nothing after its
// hello, so no read deadline is armed — a replica connection is
// write-mostly and reaped by write errors instead.
func (s *Server) handleReplica(conn net.Conn, sess *proto.Session) error {
	defer sess.Release()
	if s.isClosed() {
		conn.Close()
		return fmt.Errorf("daemon: server closed, rejecting standby %v", conn.RemoteAddr())
	}
	conn.SetReadDeadline(time.Time{})
	if err := sess.Ack(0); err != nil {
		conn.Close()
		return err
	}
	rc := &replicaConn{conn: conn}
	s.snapMu.Lock()
	s.replicas[rc] = struct{}{}
	s.snapMu.Unlock()
	s.logf("daemon: standby connected from %v", conn.RemoteAddr())

	defer func() {
		s.snapMu.Lock()
		delete(s.replicas, rc)
		s.snapMu.Unlock()
		conn.Close()
		s.logf("daemon: standby %v disconnected", conn.RemoteAddr())
	}()
	buf := make([]byte, 1)
	for {
		if _, err := conn.Read(buf); err != nil {
			return nil // a standby hanging up, or Close, is normal, not an error
		}
	}
}
