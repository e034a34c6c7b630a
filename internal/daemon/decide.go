package daemon

import (
	"fmt"
	"math/bits"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/trace"
)

// DecideOnce runs one decision round: snapshot the latest readings, decide
// and deliver through the engine, push each connected agent its cap
// assignments, and commit what the agents took. Units without a live
// agent still participate in the decision (their last report persists)
// but receive no message. It returns the caps delivered.
//
// The round is described once, in the flight recorder's next ring slot
// (telemetry.Round): filled here after the caps are pushed, published
// with the round counter, and handed to observeRound, whose consumers
// and the HTTP inspection surfaces are all views of that one record.
//
// DecideOnce must not be called concurrently with itself (the manager is
// single-threaded); Serve guarantees that by calling it from one loop.
func (s *Server) DecideOnce(interval power.Seconds) (power.Vector, error) {
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	snapTime := s.now() // reading-snapshot stamp, the e2e latency origin

	// Flip the double buffer: copy the ingest plane's front buffer into
	// the decision loop's private back buffer and classify health from
	// the report clocks. This is the only time the decision path holds
	// imu, and it holds nothing else while it does.
	s.imu.Lock()
	copy(s.snapBuf, s.readings)
	// Flip the dirty mask with the readings it describes: the front mask
	// restarts empty for the next inter-round window, and the back copy
	// tells the manager exactly which units this snapshot changed.
	s.dirtyBuf.CopyFrom(s.dirty)
	s.dirty.Reset()
	health := s.classifyHealthLocked()
	s.imu.Unlock()

	rec := s.recorder.Next()
	rec.Reset()

	s.mu.Lock()
	round := s.rounds.Load() + 1
	rec.StaleUnits, rec.DeadUnits = s.recordHealthLocked(health)
	targets := s.conns
	s.mu.Unlock()

	d, stats := s.eng.Decide(core.Snapshot{Power: s.snapBuf, Interval: interval, Health: health, Dirty: s.dirtyBuf})
	s.noteBudget()
	rec.Round, rec.Inherited = round, s.inheritedRounds.Load()
	rec.Time, rec.Elapsed, rec.Stats = s.eng.Start, s.eng.Elapsed, stats
	caps := d.Delivered

	traceOn := s.tracer.On()
	var firstErr error
	clear(s.pushedW)
	for _, sc := range targets {
		first, n := int(sc.hello.FirstUnit), sc.hello.Units
		if sc.hello.ApplyEcho {
			// Stamp before the push so an echo racing the store can never
			// pair with a snapshot newer than the caps it acknowledges.
			sc.lastSnapNano.Store(snapTime.UnixNano())
			sc.lastPushRound.Store(round)
		}
		var pushStart time.Time
		if traceOn {
			pushStart = time.Now()
		}
		sc.writeMu.Lock()
		err := sc.sess.WriteCapsRound(round, caps[first:first+n])
		sc.writeMu.Unlock()
		if traceOn {
			s.tracer.Record(round, trace.SpanPush, trace.LanePush,
				int32(first), pushStart, time.Since(pushStart))
		}
		if err != nil {
			s.metrics.pushErrors.Inc()
			s.mu.Lock()
			s.orphanLocked(sc)
			s.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("daemon: pushing caps to units [%d,%d): %w", first, first+n, err)
			}
			continue
		}
		for wi := first >> 6; wi<<6 < first+n; wi++ {
			s.pushedW[wi] |= core.WordMaskForRange(first, first+n, wi<<6)
		}
	}

	// The caps are out; describe the round while the engine still holds
	// what agents enforced going in, then commit and publish. Without
	// clocks, an all-fresh round records no health column, as nil health.
	d.Pushed = s.pushedW
	if s.lastReport == nil && rec.StaleUnits == 0 {
		d.Snap.Health = nil
	}
	rec.Fill(d)
	s.mu.Lock()
	s.rounds.Store(round)
	s.eng.Commit(caps, s.pushedW)
	s.mu.Unlock()
	s.recorder.Commit()
	// The round is complete and published: fan it out to the standbys and
	// the snapshot file, off the decision path proper.
	s.replicateRound(round, interval, caps, s.pushedW)
	s.observeRound(rec)
	return caps, firstErr
}

// classifyHealthLocked classifies every unit into the decision loop's
// private health buffer and returns it: dead or stale by its staleness
// clock (when on), and at least stale while gone. Caller holds s.imu; the
// buffer is valid until the next decision round.
func (s *Server) classifyHealthLocked() []core.UnitHealth {
	clear(s.healthBuf)
	if s.lastReport != nil {
		now := s.now()
		for u, t := range s.lastReport {
			switch age := now.Sub(t); {
			case s.cfg.DeadAfter > 0 && age >= s.cfg.DeadAfter:
				s.healthBuf[u] = core.HealthDead
			case s.cfg.StaleAfter > 0 && age >= s.cfg.StaleAfter:
				s.healthBuf[u] = core.HealthStale
			}
		}
	}
	for wi, w := range s.gone {
		for ; w != 0; w &= w - 1 {
			if u := wi<<6 | bits.TrailingZeros64(w); u < len(s.healthBuf) && s.healthBuf[u] == core.HealthFresh {
				s.healthBuf[u] = core.HealthStale
			}
		}
	}
	return s.healthBuf
}

// recordHealthLocked diffs the round's health classification against the
// previous round's retained state, publishing transitions, the stale and
// dead gauges and logs, and returns the stale and dead unit counts.
// Caller holds s.mu.
func (s *Server) recordHealthLocked(health []core.UnitHealth) (stale, dead int) {
	for u, h := range health {
		if prev := s.health[u]; h != prev {
			if c := s.metrics.transitions[int(prev)*3+int(h)]; c != nil {
				c.Inc()
			}
			s.health[u] = h
			if s.cfg.Logf != nil { // a restore moves every unit; without a sink, skip the boxing
				s.logf("daemon: unit %d health %s -> %s", u, prev, h)
			}
		}
		switch h {
		case core.HealthStale:
			stale++
		case core.HealthDead:
			dead++
		}
	}
	s.metrics.staleUnits.Set(float64(stale))
	s.metrics.deadUnits.Set(float64(dead))
	return stale, dead
}
