package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/faultinject"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/section"
	"dps/internal/snapshot"
)

// testClock is a mutex-guarded manual clock: the HA tests advance it from
// the driving goroutine while a standby's takeover goroutine reads it.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newHAServer builds a health-tracking server on the given manual clock.
func newHAServer(t testing.TB, units int, clk *testClock, mutate func(*ServerConfig)) *Server {
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{
		Manager:    mgr,
		Units:      units,
		Interval:   time.Second,
		StaleAfter: 1 * time.Second,
		DeadAfter:  4 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.now = clk.Now
	srv.ResetHealthClocks()
	return srv
}

// haSession is one raw agent connection to a server.
type haSession struct {
	conn  net.Conn
	done  chan error
	first int
	n     int
}

func openHASession(t *testing.T, srv *Server, first, n int) *haSession {
	t.Helper()
	conn, done := handshakeRaw(t, srv, power.UnitID(first), n)
	return &haSession{conn: conn, done: done, first: first, n: n}
}

// haReading is the deterministic per-round reading script shared by every
// server in a test, so twins see bitwise-identical inputs.
func haReading(round, u int) power.Watts {
	return power.Watts(40 + (round*13+u*7)%100)
}

// TestChaosKillRestore is the snapshot/restore keystone as a chaos
// script: a primary with a per-round snapshot file and an uninterrupted
// twin run in lockstep on the same reading trace; one agent is killed on
// both (pinning its units); the primary is then shut down mid-trace and
// a fresh process restored from its final snapshot. From the first
// post-restore round on, the restored server's caps must be bitwise
// identical to the twin that never died — which subsumes "no cold
// constant-allocation round" — while Σcaps ≤ budget holds every round,
// the killed units stay pinned, and the late rejoin clears degraded
// state within one round on both servers.
func TestChaosKillRestore(t *testing.T) {
	const units = 6
	budget := testBudget(units)
	const eps = 1e-6
	snapPath := filepath.Join(t.TempDir(), "state.dps")

	clk := newTestClock()
	primary := newHAServer(t, units, clk, func(sc *ServerConfig) {
		sc.SnapshotPath = snapPath
		sc.SnapshotEvery = 1
	})
	twin := newHAServer(t, units, clk, nil)

	type pair struct{ p, t *haSession }
	open := func(first, n int) *pair {
		return &pair{p: openHASession(t, primary, first, n), t: openHASession(t, twin, first, n)}
	}
	sessions := []*pair{open(0, 2), open(2, 2), open(4, 2)}
	alive := []bool{true, true, true}

	var killCaps power.Vector
	runRound := func(a, b *Server, round int) (capsA, capsB power.Vector) {
		t.Helper()
		clk.Advance(time.Second)
		vals := make(power.Vector, 2)
		for si, s := range sessions {
			if !alive[si] {
				continue
			}
			for i := 0; i < s.p.n; i++ {
				vals[i] = haReading(round, s.p.first+i)
			}
			report(t, a, s.p.conn, s.p.first, vals, true)
			report(t, b, s.t.conn, s.t.first, vals, true)
		}
		capsA, err := a.DecideOnce(1)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		capsB, err = b.DecideOnce(1)
		if err != nil {
			t.Fatalf("round %d (twin): %v", round, err)
		}
		if capsA.Sum() > budget.Total+eps || capsB.Sum() > budget.Total+eps {
			t.Fatalf("round %d: budget violated: %v / %v > %v", round, capsA.Sum(), capsB.Sum(), budget.Total)
		}
		return capsA, capsB
	}

	for round := 1; round <= 8; round++ {
		if round == 5 {
			// Kill agent 1 on both servers: its units pin at the round-4
			// caps, which the restore must carry across the process
			// boundary.
			sessions[1].p.conn.Close()
			sessions[1].t.conn.Close()
			<-sessions[1].p.done
			<-sessions[1].t.done
			alive[1] = false
		}
		caps, twinCaps := runRound(primary, twin, round)
		for u := range caps {
			if caps[u] != twinCaps[u] {
				t.Fatalf("round %d: primary and twin diverged before the kill test even started: unit %d %v vs %v",
					round, u, caps[u], twinCaps[u])
			}
		}
		if round == 4 {
			killCaps = power.Vector{caps[2], caps[3]}
		}
	}

	// Graceful shutdown: Close writes the final snapshot (round 8).
	for si, s := range sessions {
		if alive[si] {
			s.p.conn.Close()
		}
	}
	if err := primary.Close(); err != nil {
		t.Fatalf("primary close: %v", err)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("final snapshot not written: %v", err)
	}

	// A fresh process restores from the file. Its round counter continues
	// the primary's numbering; none of those rounds are its own uptime.
	restored := newHAServer(t, units, clk, nil)
	if err := restored.RestoreFromSnapshot(snapPath); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := restored.Rounds(); got != 8 {
		t.Fatalf("restored round counter = %d, want 8", got)
	}
	if st := restored.Snapshot(); st.UptimeRounds != 0 || st.StateAgeRounds != 8 {
		t.Fatalf("restored uptime/state-age = %d/%d, want 0/8", st.UptimeRounds, st.StateAgeRounds)
	}

	// The surviving agents re-handshake against the restored server.
	for si, s := range sessions {
		if alive[si] {
			s.p = openHASession(t, restored, s.p.first, s.p.n)
			_ = si
		}
	}

	for round := 9; round <= 16; round++ {
		if round == 14 {
			// The killed agent finally rejoins — on both servers, so the
			// trace stays identical.
			sessions[1].p = openHASession(t, restored, 2, 2)
			sessions[1].t = openHASession(t, twin, 2, 2)
			alive[1] = true
		}
		caps, twinCaps := runRound(restored, twin, round)
		for u := range caps {
			if caps[u] != twinCaps[u] {
				t.Fatalf("round %d: restored server diverged from uninterrupted twin: unit %d %v vs %v",
					round, u, caps[u], twinCaps[u])
			}
		}
		switch {
		case round < 14:
			if caps[2] != killCaps[0] || caps[3] != killCaps[1] {
				t.Fatalf("round %d: restore lost the health pins: [%v %v], want %v",
					round, caps[2], caps[3], killCaps)
			}
			if st := restored.Snapshot(); st.Restored {
				t.Fatalf("round %d: restored server ran a constant-allocation reset round", round)
			}
		case round >= 15:
			if st := restored.Snapshot(); st.StaleUnits != 0 || st.DeadUnits != 0 {
				t.Fatalf("round %d: still degraded after rejoin: stale=%d dead=%d",
					round, st.StaleUnits, st.DeadUnits)
			}
		}
	}
	if st := restored.Snapshot(); st.UptimeRounds != 8 || st.StateAgeRounds != 16 {
		t.Fatalf("final uptime/state-age = %d/%d, want 8/16", st.UptimeRounds, st.StateAgeRounds)
	}
	for _, s := range sessions {
		s.p.conn.Close()
		s.t.conn.Close()
	}
}

// TestChaosStandbyTakeover runs a warm standby against an in-process
// primary over a fault-injected replication link: the standby syncs the
// full snapshot, follows per-round deltas, and — when the injected fault
// kills the link deterministically — takes over with the primary's
// state. The budget must hold from the standby's very first round, the
// units pinned by a pre-failover agent kill must stay pinned bitwise,
// the takeover round must not be a constant-allocation reset, and agents
// re-handshaking against the standby must clear degraded state within
// one round.
func TestChaosStandbyTakeover(t *testing.T) {
	const units = 6
	budget := testBudget(units)
	const eps = 1e-6
	clk := newTestClock()

	primary := newHAServer(t, units, clk, nil)
	standby := newHAServer(t, units, clk, func(sc *ServerConfig) {
		sc.StandbyOf = "primary-in-process"
		// The post-takeover Serve loop must not race this test's manual
		// DecideOnce calls, so its ticker never fires.
		sc.Interval = time.Hour
	})

	// The standby dials the primary through a pipe whose standby side is
	// fault-injected: after DropAfterOps operations the next read fails
	// and closes the pipe, severing the link mid-stream — the injected
	// primary crash.
	standby.dial = func(network, addr string) (net.Conn, error) {
		client, server := net.Pipe()
		go primary.Handle(server)
		return faultinject.WrapConn(client, faultinject.ConnConfig{Seed: 7, DropAfterOps: 40}, nil), nil
	}
	var lmu sync.Mutex
	var takeoverL net.Listener
	standbyDone := make(chan error, 1)
	go func() {
		standbyDone <- standby.RunStandby(context.Background(), func() (net.Listener, error) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			lmu.Lock()
			takeoverL = l
			lmu.Unlock()
			return l, nil
		})
	}()

	// Wait for the replica to register so round 1 already replicates.
	waitUntil(t, "standby registered on primary", func() bool {
		primary.snapMu.Lock()
		defer primary.snapMu.Unlock()
		return len(primary.replicas) == 1
	})

	sessions := []*haSession{
		openHASession(t, primary, 0, 2),
		openHASession(t, primary, 2, 2),
		openHASession(t, primary, 4, 2),
	}
	alive := []bool{true, true, true}
	var killCaps power.Vector

	// Drive primary rounds until the injected fault severs the link and
	// the standby takes over. Agent 1 dies at round 4, so the pinned caps
	// are part of the replicated state whenever the failover lands.
	round := 0
	for standby.metrics.failovers.Value() == 0 {
		round++
		if round > 60 {
			t.Fatal("standby never took over")
		}
		if round == 4 {
			sessions[1].conn.Close()
			<-sessions[1].done
			alive[1] = false
		}
		clk.Advance(time.Second)
		vals := make(power.Vector, 2)
		for si, s := range sessions {
			if !alive[si] {
				continue
			}
			for i := 0; i < s.n; i++ {
				vals[i] = haReading(round, s.first+i)
			}
			report(t, primary, s.conn, s.first, vals, true)
		}
		caps, err := primary.DecideOnce(1)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 3 {
			killCaps = power.Vector{caps[2], caps[3]}
		}
		// The primary learns of the severed link when a delta write fails
		// and it drops the replica. Hold the script there until the standby
		// has taken over, so "within a round" below is judged against the
		// round the link died in, not against how fast the primary's next
		// rounds happen to run.
		primary.snapMu.Lock()
		dropped := len(primary.replicas) == 0
		primary.snapMu.Unlock()
		if dropped {
			waitUntil(t, "standby takeover", func() bool { return standby.metrics.failovers.Value() > 0 })
		}
		if standby.metrics.failovers.Value() > 0 {
			break
		}
	}
	if round < 5 {
		t.Fatalf("link died at round %d, before the kill was replicated", round)
	}
	waitUntil(t, "takeover listener open", func() bool {
		lmu.Lock()
		defer lmu.Unlock()
		return takeoverL != nil
	})

	// The standby took over within a round of the primary's last state.
	primaryRounds := primary.Rounds()
	inherited := standby.Rounds()
	if inherited < primaryRounds-1 || inherited > primaryRounds {
		t.Fatalf("standby inherited round %d, primary died at %d (want lag <= 1)", inherited, primaryRounds)
	}
	if lag := standby.metrics.standbyLag.Value(); lag != 0 {
		t.Fatalf("standby lag gauge = %v after consecutive deltas, want 0", lag)
	}
	if st := standby.Snapshot(); st.UptimeRounds != 0 || st.StateAgeRounds != inherited {
		t.Fatalf("post-takeover uptime/state-age = %d/%d, want 0/%d", st.UptimeRounds, st.StateAgeRounds, inherited)
	}

	// Retire the primary entirely; agents re-handshake on the standby.
	for si, s := range sessions {
		if alive[si] {
			s.conn.Close()
		}
	}
	primary.Close()
	sessions[0] = openHASession(t, standby, 0, 2)
	sessions[2] = openHASession(t, standby, 4, 2)

	base := int(inherited)
	for r := 1; r <= 6; r++ {
		round := base + r
		if r == 4 {
			sessions[1] = openHASession(t, standby, 2, 2)
			alive[1] = true
		}
		clk.Advance(time.Second)
		vals := make(power.Vector, 2)
		for si, s := range sessions {
			if !alive[si] {
				continue
			}
			for i := 0; i < s.n; i++ {
				vals[i] = haReading(round, s.first+i)
			}
			report(t, standby, s.conn, s.first, vals, true)
		}
		caps, err := standby.DecideOnce(1)
		if err != nil {
			t.Fatalf("standby round %d: %v", round, err)
		}
		if caps.Sum() > budget.Total+eps {
			t.Fatalf("standby round %d: Σcaps %v exceeds budget %v through handover", round, caps.Sum(), budget.Total)
		}
		st := standby.Snapshot()
		if st.Restored {
			t.Fatalf("standby round %d: takeover ran a constant-allocation reset round", round)
		}
		if r < 4 {
			if caps[2] != killCaps[0] || caps[3] != killCaps[1] {
				t.Fatalf("standby round %d: handover lost the health pins: [%v %v], want %v",
					round, caps[2], caps[3], killCaps)
			}
		}
		if r >= 5 {
			if st.StaleUnits != 0 || st.DeadUnits != 0 {
				t.Fatalf("standby round %d: still degraded after rejoin: stale=%d dead=%d",
					round, st.StaleUnits, st.DeadUnits)
			}
		}
		if st.UptimeRounds != uint64(r) || st.StateAgeRounds != uint64(round) {
			t.Fatalf("standby round %d: uptime/state-age = %d/%d, want %d/%d",
				round, st.UptimeRounds, st.StateAgeRounds, r, round)
		}
	}
	if got := standby.metrics.failovers.Value(); got != 1 {
		t.Fatalf("dps_failover_total = %d, want 1", got)
	}

	for si, s := range sessions {
		if alive[si] {
			s.conn.Close()
		}
	}
	standby.Close()
	lmu.Lock()
	takeoverL.Close()
	lmu.Unlock()
	if err := <-standbyDone; err != nil {
		t.Fatalf("RunStandby: %v", err)
	}
}

// TestTakeoverFirstRoundIsSparse: a successor's first round keeps the
// settle certificates it inherited. Its dirty set is exactly the units
// whose adopted reading differs, bit for bit, from the reading the
// controller last consumed — none, from a settled steady donor — so it
// skips the settled units, and its caps, that round and the next 50, are
// the uninterrupted donor's bit for bit. Both ways a successor gets its
// state run: RestoreFromSnapshot, and a standby's takeover after
// following the donor.
func TestTakeoverFirstRoundIsSparse(t *testing.T) {
	const (
		units  = 256
		noisy  = 16 // units [0, noisy) move every round, the rest hold still
		warmup = 120
		after  = 50
	)
	// feed writes a round's readings into srv's ingest buffer, marking the
	// units whose reading moved, as delta agents would.
	feed := func(srv *Server, round int) {
		srv.imu.Lock()
		defer srv.imu.Unlock()
		for u := range srv.readings {
			v := power.Watts(60 + u%40)
			if u < noisy { // bursts of ten rounds, idle in between
				v = power.Watts(8 + (round*37+u*11)%5)
				if (round/10+u)%2 == 0 {
					v += 140
				}
			}
			if v != srv.readings[u] {
				srv.readings[u] = v
				srv.dirty.Mark(u)
			}
		}
	}
	for _, mode := range []string{"restore", "takeover"} {
		t.Run(mode, func(t *testing.T) {
			clk := newTestClock() // never advanced: every unit stays fresh
			donor := newHAServer(t, units, clk, nil)
			defer donor.Close()

			// successor returns the server that carries on after the warm-up:
			// a fresh one restored from the donor's image, or a standby that
			// followed the donor and takes over when the link drops.
			successor := func() *Server {
				path := filepath.Join(t.TempDir(), "state.dps")
				if err := os.WriteFile(path, image(donor), 0o644); err != nil {
					t.Fatal(err)
				}
				srv := newHAServer(t, units, clk, nil)
				t.Cleanup(func() { srv.Close() })
				if err := srv.RestoreFromSnapshot(path); err != nil {
					t.Fatal(err)
				}
				return srv
			}
			if mode == "takeover" {
				standby := newHAServer(t, units, clk, func(sc *ServerConfig) {
					sc.StandbyOf = "donor-in-process"
					sc.Interval = time.Hour // Serve's ticker never races the rounds below
				})
				var link net.Conn
				standby.dial = func(string, string) (net.Conn, error) {
					client, server := net.Pipe()
					link = server
					go donor.Handle(server)
					return client, nil
				}
				listening := make(chan net.Listener, 1)
				standbyDone := make(chan error, 1)
				go func() {
					standbyDone <- standby.RunStandby(context.Background(), func() (net.Listener, error) {
						l, err := net.Listen("tcp", "127.0.0.1:0")
						if err == nil {
							listening <- l
						}
						return l, err
					})
				}()
				waitUntil(t, "standby attached", func() bool {
					donor.snapMu.Lock()
					defer donor.snapMu.Unlock()
					return len(donor.replicas) == 1
				})
				successor = func() *Server {
					waitUntil(t, "standby caught up", func() bool { return standby.Rounds() == warmup })
					link.Close()
					select {
					case l := <-listening:
						t.Cleanup(func() {
							standby.Close()
							l.Close()
							if err := <-standbyDone; err != nil {
								t.Errorf("RunStandby: %v", err)
							}
						})
					case <-time.After(5 * time.Second):
						t.Fatal("standby never took over")
					}
					return standby
				}
			}
			for r := 1; r <= warmup; r++ {
				feed(donor, r)
				if _, err := donor.DecideOnce(1); err != nil {
					t.Fatal(err)
				}
			}
			succ := successor()

			st, err := snapshot.Decode(image(succ))
			if err != nil {
				t.Fatal(err)
			}
			changed := 0
			for u, v := range st.Readings {
				if math.Float64bits(float64(v)) != math.Float64bits(float64(st.LastVal[u])) {
					changed++
				}
			}
			moved := false
			for r := 0; r <= after; r++ {
				if r > 0 { // the first round decides on the adopted readings alone
					feed(donor, warmup+r)
					feed(succ, warmup+r)
				}
				want, err := donor.DecideOnce(1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := succ.DecideOnce(1)
				if err != nil {
					t.Fatal(err)
				}
				for u := range want {
					if math.Float64bits(float64(got[u])) != math.Float64bits(float64(want[u])) {
						t.Fatalf("round %d after the handover: unit %d capped at %v, the donor %v", r, u, got[u], want[u])
					}
					moved = moved || want[u] != st.Caps[u]
				}
				if r == 0 {
					s := succ.Snapshot()
					if s.DirtyUnits != changed || changed != 0 {
						t.Errorf("first round: %d dirty units; the image holds %d changed readings, want 0", s.DirtyUnits, changed)
					}
					if s.SkippedUnits == 0 {
						t.Error("first round skipped no unit")
					}
				}
			}
			if !moved {
				t.Fatal("no cap moved after the handover; test is vacuous")
			}
		})
	}
}

// TestRestoreRejections exercises the boot-time guard rails: a restored
// file must be recent, structurally sound, and shaped for this server. A
// restore writes the image straight into the live controller and daemon,
// so every refusal — including the ones only found at the image's last
// ring or last section — must come before the first write: the refused
// server's exported image is byte for byte its fresh one, at round 0. The
// standby's gate, adoptImage, is held to the same.
func TestRestoreRejections(t *testing.T) {
	const units = 4
	dir := t.TempDir()
	path := filepath.Join(dir, "state.dps")

	clk := newTestClock()
	src := newHAServer(t, units, clk, func(sc *ServerConfig) {
		sc.SnapshotPath = path
		sc.SnapshotEvery = 1
	})
	conn, _ := handshakeRaw(t, src, 0, units)
	clk.Advance(time.Second)
	report(t, src, conn, 0, power.Vector{90, 110, 70, 130}, true)
	if _, err := src.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	variant := func(name string, edit func(img []byte) []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, edit(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	withManager := func(mut func(*core.Config)) func(*ServerConfig) {
		return func(sc *ServerConfig) {
			cfg := core.DefaultConfig(units, testBudget(units))
			mut(&cfg)
			mgr, err := core.NewDPS(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc.Manager = mgr
		}
	}

	t.Run("clean restore", func(t *testing.T) {
		srv := newHAServer(t, units, clk, nil)
		if err := srv.RestoreFromSnapshot(path); err != nil {
			t.Fatalf("restore of a fresh snapshot failed: %v", err)
		}
	})
	for _, tc := range []struct {
		name  string
		units int
		mut   func(*ServerConfig)
		path  string
		age   time.Duration
	}{
		{name: "missing file", path: filepath.Join(dir, "absent.dps")},
		{name: "corrupt file", path: variant("corrupt.dps", func(img []byte) []byte { img[len(img)/2] ^= 0xFF; return img })},
		{name: "CRC flip in the last section", path: variant("crc.dps", func(img []byte) []byte { img[len(img)-1] ^= 0x01; return img })},
		{name: "bad duration tag in the last ring", path: variant("tag.dps", lastRingTag(t, 2))},
		{name: "unit mismatch", units: units + 2, path: path},
		{name: "wrong seed", mut: withManager(func(c *core.Config) { c.Seed = 2 }), path: path},
		{name: "wrong unit bounds", mut: withManager(func(c *core.Config) { c.Budget.UnitMax = 150 }), path: path},
		{name: "stale snapshot", path: path, age: 25 * time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newHAServer(t, max(tc.units, units), clk, tc.mut)
			clk.Advance(tc.age)
			defer clk.Advance(-tc.age)
			fresh := image(srv)
			if err := srv.RestoreFromSnapshot(tc.path); err == nil {
				t.Fatal("restore succeeded")
			}
			assertUntouched(t, srv, fresh)
		})
	}
	t.Run("standby misfit", func(t *testing.T) {
		srv := newHAServer(t, units, clk, withManager(func(c *core.Config) { c.Seed = 2 }))
		fresh := image(srv)
		if bad, misfit := srv.adoptImage(data); bad != nil || misfit == nil {
			t.Fatalf("adoptImage of another controller's image: bad %v, misfit %v", bad, misfit)
		}
		assertUntouched(t, srv, fresh)
	})
}

// TestRestoreKeepsConfiguredBudget: an image carries the budget its
// donor ran under, and a restore takes the controller's state from it but
// not that budget. A server configured at 704 W restored from a donor at
// 880 W says so in its log, reports 704 W on /status before its first
// round, and from that round on delivers within 704 W and exports
// dps_budget_watts 704.
func TestRestoreKeepsConfiguredBudget(t *testing.T) {
	const units = 8 // 880 W at testBudget's 110 W a unit
	path := filepath.Join(t.TempDir(), "donor.snap")
	clk := newTestClock()
	donor := newHAServer(t, units, clk, func(sc *ServerConfig) { sc.SnapshotPath = path })
	readings := make(power.Vector, units)
	for u := range readings {
		readings[u] = power.Watts(150 + u)
	}
	for i := 0; i < 3; i++ {
		setReadings(donor, readings)
		if _, err := donor.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := donor.Close(); err != nil {
		t.Fatal(err)
	}

	const configured = 704
	var logs []string
	srv := newHAServer(t, units, clk, func(sc *ServerConfig) {
		b := testBudget(units)
		b.Total = configured
		mgr, err := core.NewDPS(core.DefaultConfig(units, b))
		if err != nil {
			t.Fatal(err)
		}
		sc.Manager = mgr
		sc.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	})
	defer srv.Close()
	if err := srv.RestoreFromSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "880 W") && strings.Contains(l, "704 W") }) {
		t.Errorf("no log line names the image's 880 W and the configured 704 W:\n%s", strings.Join(logs, "\n"))
	}
	if got := srv.Snapshot().BudgetW; got != configured {
		t.Errorf("/status budget_w after the restore = %v, want %v", got, configured)
	}
	setReadings(srv, readings)
	caps, err := srv.DecideOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Rounds() != 4 {
		t.Fatalf("first round after the restore is round %d, want 4: the image was not restored", srv.Rounds())
	}
	if sum := caps.Sum(); sum > configured {
		t.Errorf("first round after the restore delivers Σcaps = %v W over the configured %v W", sum, configured)
	}
	if got := srv.metrics.budget.Value(); got != configured {
		t.Errorf("dps_budget_watts = %v, want %v", got, configured)
	}
}

// FuzzRestoreImage drives the restore gate with mutated images of a
// 64-unit server. Every section's CRC is recomputed first (reseal), so a
// mutation reaches the section parser and the identity checks rather than
// stopping at the checksum. A refused image must leave the server exactly
// as it booted; an accepted one must restore to an export equal to
// Encode(Decode(img)), except for what a restore does not take from the
// image: the clock fields (save stamp, report ages and the health states
// classified from them), the writer's sparse settings, the budget total
// (the configured one is kept), and — for an image without a daemon
// section — the daemon's own caches.
func FuzzRestoreImage(f *testing.F) {
	const units = 64
	clk := newTestClock()
	donor := newHAServer(f, units, clk, nil)
	readings := make(power.Vector, units)
	for round := 0; round < 6; round++ {
		for u := range readings {
			readings[u] = power.Watts(30 + (round*11+u*7)%120)
		}
		setReadings(donor, readings)
		clk.Advance(400 * time.Millisecond) // the unreported units go stale, then dead
		if _, err := donor.DecideOnce(1); err != nil {
			f.Fatal(err)
		}
	}
	seed := image(donor)
	// The donor a round after a budget cut: restored, then moved back.
	if err := donor.dps.SetTotalBudget(testBudget(units).Total * 0.8); err != nil {
		f.Fatal(err)
	}
	if _, err := donor.DecideOnce(1); err != nil {
		f.Fatal(err)
	}
	otherBudget := image(donor)
	donor.Close()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(lastRingTag(f, 2)(append([]byte(nil), seed...)))
	for _, off := range []int{snapshot.HeaderSize + 10, len(seed) / 3, len(seed) - 20} {
		flip := append([]byte(nil), seed...)
		flip[off] ^= 0x40
		f.Add(flip)
	}
	f.Add(otherBudget)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(data)
		srv := newHAServer(t, units, clk, nil)
		defer srv.Close()
		fresh := image(srv)
		if err := srv.restoreImage("fuzz input", data); err != nil {
			assertUntouched(t, srv, fresh)
			return
		}
		want, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("restore accepted an image Decode refuses: %v", err)
		}
		got, err := snapshot.Decode(image(srv))
		if err != nil {
			t.Fatal(err)
		}
		if !want.HasDaemon {
			want.HasDaemon, want.Rounds = true, got.Rounds
			want.LastCaps, want.LastPushed, want.Readings = got.LastCaps, got.LastPushed, got.Readings
		}
		want.SavedUnixMS, want.ReportAgeMS, want.Health = got.SavedUnixMS, got.ReportAgeMS, got.Health
		want.Sparse, want.SparseRefreshEvery = got.Sparse, got.SparseRefreshEvery
		// Nor its budget: an image saved under another total is moved back
		// to the configured one, which marks every unit's cap moved (64
		// units fill the one word).
		if configured := testBudget(units).Total; want.BudgetTotal != configured {
			want.BudgetTotal = configured
			for i := range want.CapMovedW {
				want.CapMovedW[i] = ^uint64(0)
			}
		}
		if !bytes.Equal(snapshot.Encode(nil, got), snapshot.Encode(nil, want)) {
			t.Fatal("restored server exports a state other than the image's")
		}
	})
}

// reseal recomputes the CRC of every whole section after img's header,
// leaving any torn tail as it is.
func reseal(img []byte) []byte {
	if len(img) < snapshot.HeaderSize {
		return img
	}
	out := append([]byte(nil), img[:snapshot.HeaderSize]...)
	w := section.WalkTrusted(img[snapshot.HeaderSize:])
	for w.Next() {
		var start int
		out, start = section.Begin(out, w.ID)
		out = section.End(append(out, w.Payload...), start)
	}
	return append(out, w.Rest...)
}

// assertUntouched fails unless srv's exported image is still fresh and
// it has decided no round.
func assertUntouched(t testing.TB, srv *Server, fresh []byte) {
	t.Helper()
	if !bytes.Equal(image(srv), fresh) {
		t.Error("refused image changed the server's state")
	}
	if n := srv.Rounds(); n != 0 {
		t.Errorf("refused image left the server at round %d", n)
	}
}

// lastRingTag returns an edit that sets the duration tag of an image's
// last ring to tag and re-seals the ring section's CRC, so only the
// decoder's ring walk can refuse it.
func lastRingTag(t testing.TB, tag byte) func(img []byte) []byte {
	return func(img []byte) []byte {
		w := section.Walk(img[snapshot.HeaderSize:])
		for w.Next() {
			if w.ID != snapshot.SecRings {
				continue
			}
			p := w.Payload
			rc := int(binary.LittleEndian.Uint32(p))
			last := -1
			for off := 4; off < len(p); {
				off += 44 + 8*rc // head, n, pushes, four aggregates, power slots
				last = off
				if p[off] == 1 {
					off += 1 + 8
				} else {
					off += 1 + 8*rc
				}
			}
			p[last] = tag
			raw := w.Raw
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
			return img
		}
		t.Fatal("image holds no ring section")
		return nil
	}
}

// TestReplicateSteadyStateZeroAlloc is the replication plane's allocation
// gate: with a synced warm standby attached, building the round's input
// frame and streaming it must not allocate — the input record's scratch
// slices and the frame buffer are all retained.
func TestReplicateSteadyStateZeroAlloc(t *testing.T) {
	const units = 128
	clk := newTestClock()
	// No file path: os file writes allocate by nature; the gate is the
	// in-memory frame and the replica stream. Health stays on, so the
	// frame carries its health bytes and report ages too.
	srv := newHAServer(t, units, clk, nil)

	// A raw replica subscriber: handshake with the Replicate capability,
	// then drain state frames forever.
	client, server := net.Pipe()
	go srv.Handle(server)
	if err := proto.WriteHello(client, proto.Hello{FirstUnit: 0, Units: 1, Replicate: true}); err != nil {
		t.Fatal(err)
	}
	if err := rawReadAck(client); err != nil {
		t.Fatal(err)
	}
	var deltas atomic.Int64
	go func() {
		var buf []byte
		for {
			frame, _, b, err := proto.ReadStateFrame(client, buf)
			if err != nil {
				return
			}
			buf = b
			if frame == proto.FrameDelta {
				deltas.Add(1)
			}
		}
	}()
	waitUntil(t, "replica registered", func() bool {
		srv.snapMu.Lock()
		defer srv.snapMu.Unlock()
		return len(srv.replicas) == 1
	})

	readings := make(power.Vector, units)
	for u := range readings {
		readings[u] = power.Watts(40 + (u*7)%100)
	}
	// Warm: full snapshot to the pending replica, then input frames,
	// growing every retained buffer to steady state. Fully dirty rounds,
	// so the frame is as large as it gets.
	var caps power.Vector
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		setReadings(srv, readings)
		var err error
		if caps, err = srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	round := srv.Rounds()
	// One image, then four input frames; the sink counts a frame a moment
	// after the write that carried it returns.
	waitUntil(t, "warm-up frames counted", func() bool { return deltas.Load() == 4 })

	allocs := testing.AllocsPerRun(100, func() {
		round++
		srv.replicateRound(round, 1, caps, nil)
	})
	if allocs != 0 {
		t.Errorf("warm replication round allocated %.1f times, want 0", allocs)
	}
	// AllocsPerRun runs the function once to warm up, then 100 times.
	waitUntil(t, "one input frame per replicated round", func() bool { return deltas.Load() == 4+101 })
	client.Close()
	srv.Close()
}

// waitUntil polls cond until it holds or a deadline expires.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingManager parks the next Decide after arm until released, so a
// test can hold a decision round open.
type blockingManager struct {
	ingestManager
	arm              atomic.Bool
	entered, release chan struct{}
}

func (m *blockingManager) Decide(s core.Snapshot) power.Vector {
	if m.arm.CompareAndSwap(true, false) {
		m.entered <- struct{}{}
		<-m.release
	}
	return m.ingestManager.Decide(s)
}

// TestCloseExportsAfterRoundInFlight: there is no per-round image for
// Close to fall back on, so it must wait out a round in flight and export
// then — the final snapshot holds that round, not the one before it.
func TestCloseExportsAfterRoundInFlight(t *testing.T) {
	const units = 4
	path := filepath.Join(t.TempDir(), "state.dps")
	mgr := &blockingManager{entered: make(chan struct{}), release: make(chan struct{}),
		ingestManager: ingestManager{caps: power.NewVector(units, 100), budget: testBudget(units)}}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second,
		SnapshotPath: path, SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DecideOnce(1); err != nil { // round 1 writes the file (first write is always due)
		t.Fatal(err)
	}
	mgr.arm.Store(true)
	decided := make(chan error, 1)
	go func() {
		_, err := srv.DecideOnce(1)
		decided <- err
	}()
	<-mgr.entered // round 2 is inside the manager
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a round was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(mgr.release)
	if err := <-decided; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 {
		t.Fatalf("final snapshot is of round %d, want 2", st.Rounds)
	}
}
