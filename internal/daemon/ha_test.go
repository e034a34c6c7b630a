package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/section"
	"dps/internal/snapshot"
)

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
	src := newRigServer(t, units, clk, func(sc *ServerConfig) {
		sc.SnapshotPath = path
		sc.SnapshotEvery = 1
	})
	clk.Advance(time.Second)
	setReadings(src, power.Vector{90, 110, 70, 130})
	if _, err := src.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
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
		srv := newRigServer(t, units, clk, nil)
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
			srv := newRigServer(t, max(tc.units, units), clk, tc.mut)
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
		srv := newRigServer(t, units, clk, withManager(func(c *core.Config) { c.Seed = 2 }))
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
// dps_budget_watts 704. (An agent registers first: a restored server
// answers for no unit until its agent does, and pins the rest at what
// the donor's devices hold.)
func TestRestoreKeepsConfiguredBudget(t *testing.T) {
	const configured = 704
	readings := make(power.Vector, 8)
	for u := range readings {
		readings[u] = power.Watts(150 + u)
	}
	var logs []string
	srv, clk := restoreUnderLowerBudget(t, readings, func(sc *ServerConfig) {
		sc.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	})
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "880 W") && strings.Contains(l, "704 W") }) {
		t.Errorf("no log line names the image's 880 W and the configured 704 W:\n%s", strings.Join(logs, "\n"))
	}
	if got := srv.Snapshot().BudgetW; got != configured {
		t.Errorf("/status budget_w after the restore = %v, want %v", got, configured)
	}
	caps := joinAndDecide(t, srv, readings)
	if srv.Rounds() != 4 {
		t.Fatalf("first round after the restore is round %d, want 4: the image was not restored", srv.Rounds())
	}
	if sum := caps.Sum(); sum > configured {
		t.Errorf("first round after the restore delivers Σcaps = %v W over the configured %v W", sum, configured)
	}
	if got := srv.metrics.budget.Value(); got != configured {
		t.Errorf("dps_budget_watts = %v, want %v", got, configured)
	}

	// parent_state.snap was written before caps lived on the 0.1 W grid
	// and holds caps off it; the first round after restoring it delivers
	// them on the grid and within the budget in deciwatts.
	parent := newRigServer(t, 4, clk, nil)
	defer parent.Close()
	if err := parent.RestoreFromSnapshot(filepath.Join("testdata", "parent_state.snap")); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(parent.dps.Caps(), func(c power.Watts) bool { return power.FromDeciwatts(power.Deciwatts(c)) != c }) {
		t.Fatal("parent_state.snap restored no cap off the grid")
	}
	caps = joinAndDecide(t, parent, power.Vector{150, 40, 60, 5})
	for u, c := range caps {
		if power.FromDeciwatts(power.Deciwatts(c)) != c {
			t.Errorf("unit %d: first round after the parent image's restore delivers %v W, off the grid", u, c)
		}
	}
	if sum, limit := caps.SumDeciwatts(), power.FloorDeciwatts(testBudget(4).Total); sum > limit {
		t.Errorf("first round after the parent image's restore delivers %d dW over the %d dW budget", sum, limit)
	}
}

// restoreUnderLowerBudget runs a donor of 8 units at 880 W (testBudget's
// 110 W a unit) for three rounds of readings and restores its final image
// into a server configured at 704 W, after mutate edits that server's
// config. No agent is registered: every unit is pinned at the caps the
// donor's devices hold, 880 W in all.
func restoreUnderLowerBudget(t *testing.T, readings power.Vector, mutate func(*ServerConfig)) (*Server, *testClock) {
	t.Helper()
	units := len(readings)
	path := filepath.Join(t.TempDir(), "donor.snap")
	clk := newTestClock()
	donor := newRigServer(t, units, clk, func(sc *ServerConfig) { sc.SnapshotPath = path })
	for i := 0; i < 3; i++ {
		setReadings(donor, readings)
		if _, err := donor.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := donor.Close(); err != nil {
		t.Fatal(err)
	}
	srv := newRigServer(t, units, clk, func(sc *ServerConfig) {
		b := testBudget(units)
		b.Total = 704
		mgr, err := core.NewDPS(core.DefaultConfig(units, b))
		if err != nil {
			t.Fatal(err)
		}
		sc.Manager = mgr
		mutate(sc)
	})
	t.Cleanup(func() { srv.Close() })
	if err := srv.RestoreFromSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return srv, clk
}

// joinAndDecide registers one agent for every unit of srv, lands readings
// and decides a round, returning its delivered caps.
func joinAndDecide(t *testing.T, srv *Server, readings power.Vector) power.Vector {
	t.Helper()
	agent, _ := newTestAgent(t, 0, len(readings))
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go srv.Handle(server)
	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}
	go func() {
		for agent.ReceiveCaps() == nil {
		}
	}()
	setReadings(srv, readings)
	caps, err := srv.DecideOnce(1)
	if err != nil {
		t.Fatal(err)
	}
	return caps
}

// TestStandbyLogsPrimaryBudget: a 704 W standby of an 880 W primary
// follows the primary's budget, and says so when it syncs and again when
// it takes over.
func TestStandbyLogsPrimaryBudget(t *testing.T) {
	const units = 8 // 880 W at testBudget's 110 W a unit
	clk := newTestClock()
	primary := newRigServer(t, units, clk, nil)
	for i := 0; i < 2; i++ {
		if _, err := primary.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu   sync.Mutex
		logs []string
	)
	logged := func(prefix string) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := slices.IndexFunc(logs, func(l string) bool { return strings.HasPrefix(l, prefix) })
		if i < 0 {
			return "", false
		}
		return logs[i], true
	}
	standby := newRigServer(t, units, clk, func(sc *ServerConfig) {
		b := testBudget(units)
		b.Total = 704
		mgr, err := core.NewDPS(core.DefaultConfig(units, b))
		if err != nil {
			t.Fatal(err)
		}
		sc.Manager, sc.StandbyOf, sc.Interval = mgr, "primary-in-process", time.Hour
		sc.Logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}
	})
	standby.dial = func(string, string) (net.Conn, error) {
		client, server := net.Pipe()
		go primary.Handle(server)
		return client, nil
	}
	l := &pipeListener{done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- standby.RunStandby(ctx, func() (net.Listener, error) { return l, nil }) }()
	defer func() {
		cancel()
		standby.Close()
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("RunStandby: %v", err)
		}
	}()

	// The primary sends its image with the round after the standby attaches.
	waitUntil(t, "standby attached", func() bool {
		primary.snapMu.Lock()
		defer primary.snapMu.Unlock()
		return len(primary.replicas) == 1
	})
	if _, err := primary.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
	both := func(line string) bool { return strings.Contains(line, "880 W") && strings.Contains(line, "704 W") }
	waitUntil(t, "standby synced", func() bool { _, ok := logged("daemon: standby: synced"); return ok })
	if line, _ := logged("daemon: standby: synced"); !both(line) {
		t.Errorf("the sync line does not name the primary's 880 W and the configured 704 W: %q", line)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "standby takeover", func() bool { _, ok := logged("daemon: standby: primary gone"); return ok })
	if line, _ := logged("daemon: standby: primary gone"); !both(line) {
		t.Errorf("the takeover line does not name the primary's 880 W and the configured 704 W: %q", line)
	}
	if got := standby.Snapshot().BudgetW; got != 880 {
		t.Errorf("/status budget_w after the takeover = %v, want the primary's 880", got)
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
	donor := newRigServer(f, units, clk, nil)
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
		srv := newRigServer(t, units, clk, nil)
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
	srv := newRigServer(t, units, clk, nil)

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

// TestCloseExportsAfterRoundInFlight: there is no per-round image for
// Close to fall back on, so it must wait out a round in flight and export
// then — the final snapshot holds that round, not the one before it.
func TestCloseExportsAfterRoundInFlight(t *testing.T) {
	const units = 4
	path := filepath.Join(t.TempDir(), "state.dps")
	srv, err := NewServer(ServerConfig{Manager: mustDPS(t, units), Units: units, Interval: time.Second,
		SnapshotPath: path, SnapshotEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// The engine reads its clock just before the controller decides: once
	// armed, that read parks the round until released.
	var arm atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	srv.eng.Clock = func() time.Time {
		if arm.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return time.Now()
	}
	if _, err := srv.DecideOnce(1); err != nil { // round 1 writes the file (first write is always due)
		t.Fatal(err)
	}
	arm.Store(true)
	decided := make(chan error, 1)
	go func() {
		_, err := srv.DecideOnce(1)
		decided <- err
	}()
	<-entered // round 2 is about to decide
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a round was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
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
