package daemon

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"dps/internal/core"
	"dps/internal/proto"
	"dps/internal/section"
	"dps/internal/snapshot"
)

// This file is the primary's half of the high-availability plane
// (DESIGN.md §14): after every completed decision round the daemon
// exports its full state — the controller's internals plus its own round
// caches — into a versioned snapshot image, diffs it section-by-section
// against the previous round's image, writes the image to the snapshot
// file on the configured cadence, and streams the changed sections as a
// delta frame to every attached warm standby. Everything runs after the
// caps of the round are already pushed, on the decision goroutine, so it
// never races the manager and never delays a cap delivery; all buffers
// are retained, so a warm replication round allocates nothing.

// snapshotActive reports whether this round needs a state image. Caller
// holds snapMu.
func (s *Server) snapshotActive() bool {
	return s.cfg.SnapshotPath != "" || len(s.replicas) > 0
}

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
		st.HasCore, st.HasSparse = false, false
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
	copy(st.LastCaps, s.lastCaps)
	copy(st.LastPushed, s.lastPushed)
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

// replicateRound assembles the round's state image and fans it out: the
// snapshot file on its cadence, a full FrameSnapshot to replicas that
// have not yet been synced, and a FrameDelta carrying only the changed
// sections to everyone else. Called by DecideOnce after the round is
// published; a no-op unless a snapshot path is configured or a standby
// is attached.
func (s *Server) replicateRound(round uint64) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if !s.snapshotActive() {
		return
	}

	start := s.now()
	s.exportState(round)
	s.nextEnc = snapshot.Encode(s.nextEnc, &s.snapState)
	// Split the image into raw section framings. No CRC verification: the
	// bytes came out of our own encoder a moment ago (a standby re-verifies
	// everything it was sent when it decodes its overlay at takeover).
	s.curSecs = s.curSecs[:0]
	for w := section.WalkTrusted(s.nextEnc[snapshot.HeaderSize:]); w.Next(); {
		s.curSecs = append(s.curSecs, w.Raw)
	}

	// Section diff against the previous image. The encoder emits a fixed
	// section sequence for a fixed configuration, so an index walk is
	// exact (a framing starts with its id, so equal bytes are the same
	// section); the first image (or any shape change) yields
	// a full-image "delta" which is never sent — unsynced replicas get
	// the complete frame instead.
	s.deltaBuf = s.deltaBuf[:0]
	s.deltaBuf = append(s.deltaBuf, 0, 0, 0, 0, 0, 0, 0, 0)
	proto.PutDeltaRound(s.deltaBuf, round)
	prevComplete := len(s.prevSecs) == len(s.curSecs)
	for i, sec := range s.curSecs {
		if prevComplete && bytes.Equal(s.prevSecs[i], sec) {
			continue
		}
		s.deltaBuf = append(s.deltaBuf, sec...)
	}

	// Swap the image buffers: the just-encoded image becomes current and
	// the old current becomes next round's scratch. The section views
	// swap with the bytes they point into.
	s.snapEnc, s.nextEnc = s.nextEnc, s.snapEnc
	s.curSecs, s.prevSecs = s.prevSecs[:0], s.curSecs

	s.metrics.snapshotBytes.Set(float64(len(s.snapEnc)))
	s.metrics.snapshotDur.Observe(s.now().Sub(start).Seconds())

	for rc := range s.replicas {
		var err error
		if !rc.synced {
			if err = rc.writeFrame(proto.FrameSnapshot, s.snapEnc); err == nil {
				rc.synced = true
			}
		} else {
			err = rc.writeFrame(proto.FrameDelta, s.deltaBuf)
		}
		if err != nil {
			s.logf("daemon: dropping standby %v: %v", rc.conn.RemoteAddr(), err)
			rc.conn.Close()
			delete(s.replicas, rc)
		}
	}

	if s.cfg.SnapshotPath != "" && (s.lastFileRound == 0 || round-s.lastFileRound >= s.snapshotEvery()) {
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
// at boot when -restore-from is set. Stale (older than SnapshotMaxAge
// by its own save stamp), corrupt, or mismatched files are rejected
// with an error and the server is left in its fresh-boot state.
func (s *Server) RestoreFromSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("daemon: reading snapshot: %w", err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		return fmt.Errorf("daemon: snapshot %s: %w", path, err)
	}
	if st.Units != s.cfg.Units {
		return fmt.Errorf("daemon: snapshot %s is for %d units, server has %d", path, st.Units, s.cfg.Units)
	}
	maxAge := s.cfg.SnapshotMaxAge
	if maxAge == 0 {
		maxAge = DefaultSnapshotMaxAge
	}
	if st.HasDaemon {
		if age := s.now().Sub(time.UnixMilli(st.SavedUnixMS)); age > maxAge {
			return fmt.Errorf("daemon: snapshot %s is stale: saved %v ago, limit %v", path, age.Round(time.Second), maxAge)
		}
	}
	if s.dps != nil {
		if !st.HasCore {
			return fmt.Errorf("daemon: snapshot %s carries no controller state", path)
		}
		if err := s.dps.RestoreState(st); err != nil {
			return fmt.Errorf("daemon: snapshot %s: %w", path, err)
		}
	}
	s.adoptDaemonState(st)
	s.logf("daemon: restored state from %s: round %d, %d units, %d high-priority (saved %s)",
		path, st.Rounds, st.Units, core.ExportedHighCount(st),
		time.UnixMilli(st.SavedUnixMS).UTC().Format(time.RFC3339))
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
func (s *Server) adoptDaemonState(st *snapshot.State) {
	if !st.HasDaemon {
		return
	}
	s.inheritedRounds.Store(st.Rounds)
	s.rounds.Store(st.Rounds)

	s.mu.Lock()
	copy(s.lastCaps, st.LastCaps)
	copy(s.lastPushed, st.LastPushed)
	if s.health != nil && len(st.Health) == len(s.health) {
		for u, h := range st.Health {
			if h > uint8(core.HealthDead) {
				h = uint8(core.HealthDead)
			}
			s.health[u] = core.UnitHealth(h)
		}
	}
	s.mu.Unlock()

	now := s.now()
	s.imu.Lock()
	copy(s.readings, st.Readings)
	if s.lastReport != nil && len(st.ReportAgeMS) == len(s.lastReport) {
		for u, age := range st.ReportAgeMS {
			s.lastReport[u] = now.Add(-time.Duration(age) * time.Millisecond)
		}
	}
	s.dirty.SetAll()
	s.imu.Unlock()
}

// handleReplica serves one warm-standby connection: acknowledge the
// handshake, hand the connection to the replication plane (the decision
// loop sends the full image on the next round, deltas after), and block
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
			if s.isClosed() {
				return nil
			}
			return nil // a standby hanging up is normal, not an error
		}
	}
}
