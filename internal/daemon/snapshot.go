package daemon

import (
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

// bindState makes s.snapState a view of the live state (core.BindState):
// the controller's columns, and the daemon's delivered and enforced caps
// and ingest front buffer, are the State's columns. What is laid out
// differently — health, report ages, and the controller's rest — stays
// materialised in the State, reused from one export or restore to the
// next. Caller holds roundMu and snapMu.
func (s *Server) bindState() *snapshot.State {
	st := &s.snapState
	s.dps.BindState(st)
	st.LastCaps, st.LastPushed, st.Readings = s.eng.Prev, s.eng.Enforced, s.readings
	return st
}

// encodeImage encodes the complete state as of the completed round
// `round` into the retained image buffer, which it returns: the
// controller's state, and the daemon's own round caches (HasDaemon) —
// caps delivered, caps enforced, health, report ages, and the ingest
// front buffer, so a restored daemon's first round decides on the
// primary's readings rather than zeros. Encode reads the bound columns in place, so the
// controller and the engine must be between rounds: caller holds roundMu
// and snapMu. Ingest waits out the encode, which reads its front buffer.
func (s *Server) encodeImage(round uint64) []byte {
	start := s.now()
	st := s.bindState()
	s.dps.ExportState(st)
	st.HasDaemon = true
	now := s.now()
	st.SavedUnixMS = now.UnixMilli()
	st.Rounds = round

	n := s.cfg.Units
	st.Health = snapshot.Resize(st.Health, n)
	s.mu.Lock()
	for u, h := range s.health {
		st.Health[u] = uint8(h)
	}
	s.mu.Unlock()

	st.ReportAgeMS = snapshot.Resize(st.ReportAgeMS, n)
	s.imu.Lock()
	if s.lastReport != nil {
		for u := range st.ReportAgeMS {
			st.ReportAgeMS[u] = uint64(max(now.Sub(s.lastReport[u]), 0).Milliseconds())
		}
	} else {
		clear(st.ReportAgeMS)
	}
	s.snapEnc = snapshot.Encode(s.snapEnc, st)
	s.imu.Unlock()
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
	in.BudgetTotal = s.dps.Budget().Total
	in.SavedUnixMS = now.UnixMilli()
	in.Digest = s.eng.Digest(caps)
	in.Dirty, in.Readings = s.dirtyBuf.Words(), s.snapBuf
	in.Pushed = snapshot.Resize(in.Pushed, len(in.Dirty))
	clear(in.Pushed[copy(in.Pushed, pushed):])
	in.HasHealth = true
	in.Health = snapshot.Resize(in.Health, len(s.healthBuf))
	for u, h := range s.healthBuf {
		in.Health[u] = uint8(h)
	}
	in.ReportAgeMS = snapshot.Resize(in.ReportAgeMS, len(s.healthBuf))
	s.imu.Lock()
	if s.lastReport == nil {
		clear(in.ReportAgeMS)
	}
	for u, t := range s.lastReport {
		in.ReportAgeMS[u] = uint32(min(max(now.Sub(t).Milliseconds(), 0), math.MaxUint32))
	}
	s.imu.Unlock()
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
			rc.synced = true
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
// controller's state and the daemon's round caches, health clocks, and
// reading buffer. The budget
// total stays the configured one: an image saved under another is
// restored, then moved back to it (logged), and caps over it are pulled
// back by the first round's budget fit. It must be called after
// NewServer and before any decision round — dpsd calls it at boot when
// -restore-from is set. Stale (older than
// DefaultSnapshotMaxAge by its own save stamp), corrupt, or mismatched
// files are rejected with an error and the server is left in its
// fresh-boot state.
func (s *Server) RestoreFromSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("daemon: reading snapshot: %w", err)
	}
	if err := s.restoreImage(path, data); err != nil {
		return fmt.Errorf("daemon: snapshot %s: %w", path, err)
	}
	return nil
}

// restoreImage is RestoreFromSnapshot of an image already in memory, read
// from `from`: verify it whole, check that it is fresh and fits this
// server, and only then install it. A refused image touches nothing.
func (s *Server) restoreImage(from string, data []byte) error {
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	fp, err := snapshot.Verify(data)
	if err != nil {
		return err
	}
	if fp.HasDaemon {
		if age := s.now().Sub(time.UnixMilli(fp.SavedUnixMS)); age > DefaultSnapshotMaxAge {
			return fmt.Errorf("stale: saved %v ago, limit %v", age.Round(time.Second), DefaultSnapshotMaxAge)
		}
	}
	if err := s.fits(fp); err != nil {
		return err
	}
	st := s.install(data, s.now())
	s.logf("daemon: restored state from %s: round %d, %d units, %d high-priority (saved %s)",
		from, st.Rounds, st.Units, core.ExportedHighCount(st),
		time.UnixMilli(st.SavedUnixMS).UTC().Format(time.RFC3339))
	// The image carries the budget it was saved under; the operator's
	// configuration, not the donor's, says what this server may spend.
	if st.BudgetTotal != s.configuredBudget {
		if err := s.dps.SetTotalBudget(s.configuredBudget); err != nil {
			panic(fmt.Sprintf("daemon: re-applying the configured budget: %v", err))
		}
		s.logf("daemon: snapshot %s was saved under a %v W budget; keeping the configured %v W",
			from, st.BudgetTotal, s.configuredBudget)
	}
	s.noteBudget()
	return nil
}

// fits reports whether a verified image with fingerprint fp can become
// this server's state: its unit count and the controller's identity
// (core.CheckFingerprint).
func (s *Server) fits(fp snapshot.Fingerprint) error {
	if fp.Units != s.cfg.Units {
		return fmt.Errorf("image is for %d units, server has %d", fp.Units, s.cfg.Units)
	}
	return s.dps.CheckFingerprint(fp)
}

// install makes data, an image Verify accepted and fits approved, the
// server's state: the decode's second pass writes it straight into the
// live columns (bindState), the controller imports the rest, and the
// daemon adopts its section, every unit gone until its agent registers.
// It returns the State the image went through. anchor is the time, on
// whatever clock the staleness clocks are to run on, at which the image's
// report ages held. Caller holds roundMu and snapMu.
func (s *Server) install(data []byte, anchor time.Time) *snapshot.State {
	st := s.bindState()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.imu.Lock()
	defer s.imu.Unlock()
	snapshot.DecodeVerified(st, data)
	if err := s.dps.RestoreState(st); err != nil {
		panic(fmt.Sprintf("daemon: restoring an image that passed every check: %v", err))
	}
	s.adoptDaemonLocked(st, anchor)
	// The image's agents answered to another process: until one registers
	// here, what its devices hold is all this server knows of them.
	for i := range s.gone {
		s.gone[i] = math.MaxUint64
	}
	s.markChangedLocked()
	return st
}

// adoptDaemonLocked installs the rest of a snapshot's daemon section —
// the delivered and enforced caps and the ingest front buffer are
// already in place, decoded into the engine's and ingest's own memory:
// the round counter (continued, with the inherited count recorded for
// the uptime_rounds/state_age_rounds split), health states, and
// staleness clocks rebuilt from relative report ages. Caller holds mu
// and imu.
func (s *Server) adoptDaemonLocked(st *snapshot.State, anchor time.Time) {
	if !st.HasDaemon {
		return
	}
	s.inheritedRounds.Store(st.Rounds)
	s.rounds.Store(st.Rounds)
	if len(st.Health) == len(s.health) {
		for u, h := range st.Health {
			if h > uint8(core.HealthDead) {
				h = uint8(core.HealthDead)
			}
			s.health[u] = core.UnitHealth(h)
		}
	}
	if s.lastReport != nil && len(st.ReportAgeMS) == len(s.lastReport) {
		for u, age := range st.ReportAgeMS {
			s.lastReport[u] = anchor.Add(-time.Duration(age) * time.Millisecond)
		}
	}
}

// markChangedLocked makes the ingest dirty mask exactly the units whose
// reading differs, bit for bit, from the one the controller last
// consumed — for readings whose arrival no ingest mark recorded: adopted
// with an image, or replayed by a following standby. A clear bit then
// means what it means between rounds of one process (DESIGN.md §13), so
// the next round is as sparse as the state allows. Caller holds roundMu
// and imu.
func (s *Server) markChangedLocked() {
	s.dirty.Reset()
	s.dps.MarkChanged(s.dirty, s.readings)
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
