package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dps/internal/blackbox"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/snapshot"
	"dps/internal/telemetry"
)

// The round-record differential. One scripted scenario is driven through
// every surface that is a view of the round record — /debug/rounds (with
// and without unit=), /debug/why, /status, the black box as `dpsctl
// blackbox dump --json` prints it, and the snapshot file — and the bytes
// are compared with testdata captured from an earlier commit. They were
// first captured at the commit before the record existed (a88cf7a, where
// each surface kept its own copy of the round), and re-captured once
// caps were delivered on the 0.1 W grid, which moved every cap the script
// decides; the image the script writes is record_state.snap. Scenario B's
// block alone was re-captured when -policy slurm became the DPS
// stateless-only preset. The script hits a restore round, stale and dead
// units, a flight-recorder ring that wraps, a silent unit held by
// degraded_deliver, and a process generation restored from the parent's
// snapshot image.
// That image, parent_state.snap, was captured at c8328f5, the last commit
// to read v1 images, and holds caps off the grid; a88cf7a's v1 image is
// v1_state.snap.
//
// Stage wall times are the only nondeterministic values; they are masked
// to 0 in the JSON and zeroed in the black-box records.

var stageTimingRE = regexp.MustCompile(`"(kalman|stateless|priority|readjust)_s":[^,}]+`)

// viewLog accumulates the scenario's observable bytes, one titled
// section per request.
type viewLog struct {
	t   *testing.T
	buf bytes.Buffer
}

func (v *viewLog) get(srv *Server, title, url string) {
	v.t.Helper()
	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != 200 {
		v.t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body)
	}
	fmt.Fprintf(&v.buf, "### %s GET %s\n%s", title, url, stageTimingRE.ReplaceAll(rec.Body.Bytes(), []byte(`"${1}_s":0`)))
}

// blackbox appends the ring under dir the way `dpsctl blackbox dump
// --json` prints it: one JSON object per retained round, oldest first.
func (v *viewLog) blackbox(title, dir string) {
	v.t.Helper()
	rounds, err := blackbox.Dump(dir)
	if err != nil {
		v.t.Fatal(err)
	}
	fmt.Fprintf(&v.buf, "### %s blackbox dump --json\n", title)
	enc := json.NewEncoder(&v.buf)
	for i := range rounds {
		r := &rounds[i]
		r.KalmanS, r.StatelessS, r.PriorityS, r.ReadjustS = 0, 0, 0, 0
		if err := enc.Encode(r); err != nil {
			v.t.Fatal(err)
		}
	}
}

// scriptedServer is a server on a scripted clock whose units report only
// when the script says so.
type scriptedServer struct {
	*Server
	now time.Time
}

func newScriptedServer(t *testing.T, cfg ServerConfig, start time.Time) *scriptedServer {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{Server: srv, now: start}
	srv.now = func() time.Time { return s.now }
	srv.ResetHealthClocks()
	return s
}

// round advances the clock two seconds, lands readings, refreshes the
// staleness clock of the reporting units — which an agent registered for,
// so none of them is gone — and decides.
func (s *scriptedServer) round(t *testing.T, readings power.Vector, reporting ...int) {
	t.Helper()
	s.now = s.now.Add(2 * time.Second)
	setReadings(s.Server, readings)
	s.imu.Lock()
	for _, u := range reporting {
		s.lastReport[u] = s.now
		s.gone[u>>6] &^= 1 << (u & 63)
	}
	s.imu.Unlock()
	if _, err := s.DecideOnce(2); err != nil {
		t.Fatal(err)
	}
}

func recordViews(t *testing.T, dir string) []byte {
	v := &viewLog{t: t}
	start := time.Unix(1_700_000_000, 0).UTC()
	health := func(cfg ServerConfig) ServerConfig {
		cfg.Interval = 2 * time.Second
		cfg.StaleAfter, cfg.DeadAfter = 3*time.Second, 10*time.Second
		cfg.FlightRecorderSize = 4
		return cfg
	}

	// A: DPS over four units, black box and snapshot file on.
	const units = 4
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	a := newScriptedServer(t, health(ServerConfig{
		Manager: mgr, Units: units,
		BlackboxPath: filepath.Join(dir, "bb-a"), BlackboxRounds: 64,
		SnapshotPath: filepath.Join(dir, "a.snap"), SnapshotEvery: 1,
	}), start)
	v.get(a.Server, "A0", "/debug/rounds")
	v.get(a.Server, "A0", "/status")
	a.round(t, power.Vector{150, 30, 90, 140}, 0, 1, 2, 3)
	a.round(t, power.Vector{150, 30, 95, 140}, 0, 1, 2, 3)
	for i := 0; i < 3; i++ { // everything quiet: Algorithm 3 restores
		a.round(t, power.Vector{5, 5, 5, 5}, 0, 1, 2, 3)
	}
	// Five rounds through a four-slot ring: it has wrapped once.
	v.get(a.Server, "A5", "/debug/rounds")
	v.get(a.Server, "A5", "/debug/rounds?n=2&unit=1")
	v.get(a.Server, "A5", "/debug/why?unit=0")
	v.get(a.Server, "A5", "/status")
	// Units 2 and 3 fall silent: stale from round 7, dead from round 10.
	for i := 0; i < 7; i++ {
		a.round(t, power.Vector{150 - power.Watts(i), 40, 5, 5}, 0, 1)
	}
	v.get(a.Server, "A12", "/debug/rounds")
	v.get(a.Server, "A12", "/debug/rounds?n=3&unit=2")
	v.get(a.Server, "A12", "/debug/rounds?n=1&unit=99")
	v.get(a.Server, "A12", "/debug/why?unit=0")
	v.get(a.Server, "A12", "/debug/why?unit=2")
	v.get(a.Server, "A12", "/debug/why?unit=0&n=2")
	v.get(a.Server, "A12", "/status")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	v.blackbox("A", filepath.Join(dir, "bb-a"))

	// B: the -policy slurm preset; the silent unit's cap is held at what
	// its device enforces, and earns degraded_deliver.
	b := newScriptedServer(t, health(ServerConfig{
		Manager: slurmPreset(t, 3), Units: 3,
		BlackboxPath: filepath.Join(dir, "bb-b"), BlackboxRounds: 64,
	}), start)
	b.round(t, power.Vector{120, 100, 20}, 0, 1, 2)
	for i := 0; i < 5; i++ {
		b.round(t, power.Vector{120 + power.Watts(i), 100, 20}, 0, 1)
	}
	v.get(b.Server, "B6", "/debug/rounds")
	v.get(b.Server, "B6", "/debug/why?unit=2")
	v.get(b.Server, "B6", "/status")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	v.blackbox("B", filepath.Join(dir, "bb-b"))
	return v.buf.Bytes()
}

// slurmPreset is dpsd's -policy slurm over units, built the way dpsd
// builds it.
func slurmPreset(t *testing.T, units int) core.Manager {
	t.Helper()
	fc := FileConfig{Units: units, Policy: "slurm"}
	if err := fc.resolve(); err != nil {
		t.Fatal(err)
	}
	mgr, err := fc.BuildManager()
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// restoredViews boots a fresh process generation from a snapshot image
// and records what its first rounds look like.
func restoredViews(t *testing.T, image string) []byte {
	v := &viewLog{t: t}
	const units = 4
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	c := newScriptedServer(t, ServerConfig{
		Manager: mgr, Units: units, Interval: 2 * time.Second,
		StaleAfter: 3 * time.Second, DeadAfter: 10 * time.Second, FlightRecorderSize: 4,
	}, time.Unix(1_700_000_030, 0).UTC())
	if err := c.RestoreFromSnapshot(image); err != nil {
		t.Fatal(err)
	}
	v.get(c.Server, "C0", "/status")
	c.round(t, power.Vector{150, 40, 60, 5}, 0, 1, 2)
	c.round(t, power.Vector{150, 40, 60, 5}, 0, 1, 2)
	v.get(c.Server, "C2", "/debug/rounds")
	v.get(c.Server, "C2", "/debug/why?unit=2")
	v.get(c.Server, "C2", "/status")
	return v.buf.Bytes()
}

func TestRoundRecordViewsMatchParent(t *testing.T) {
	dir := t.TempDir()
	got := recordViews(t, dir)
	image, err := os.ReadFile(filepath.Join(dir, "a.snap"))
	if err != nil {
		t.Fatal(err)
	}
	goldenViews := filepath.Join("testdata", "record_views.golden")
	goldenImage := filepath.Join("testdata", "record_state.snap")
	parentImage := filepath.Join("testdata", "parent_state.snap")
	if os.Getenv("CAPTURE_PARENT") != "" {
		// Run at the parent commit only: this is how the testdata was made.
		// The black-box segment carries raw stage wall times, so a capture
		// rewrites it with new ones even when every other byte is the same.
		if err := os.WriteFile(goldenImage, image, 0o644); err != nil {
			t.Fatal(err)
		}
		got = append(got, restoredViews(t, parentImage)...)
		if err := os.WriteFile(goldenViews, got, 0o644); err != nil {
			t.Fatal(err)
		}
		segment, err := os.ReadFile(filepath.Join(dir, "bb-a", "bb-00000001.dpsbb"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("..", "blackbox", "testdata", "parent", "bb-00000001.dpsbb"), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	// The snapshot file holds no wall-clock value, so the image this
	// commit writes must be the parent's byte for byte.
	wantImage, err := os.ReadFile(goldenImage)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, wantImage) {
		t.Errorf("snapshot image differs from the parent's %s (%d vs %d bytes)", goldenImage, len(image), len(wantImage))
	}
	// The restored generation boots from the image c8328f5 wrote.
	got = append(got, restoredViews(t, parentImage)...)
	want, err := os.ReadFile(goldenViews)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("views of the round record differ from the parent's %s:\ngot:\n%s\nwant:\n%s", goldenViews, got, want)
	}
}

// TestV1ImageRefused: v1_state.snap is the version-1 image a88cf7a wrote
// for the scenario above. A decoder reads only the version Encode writes,
// so the image is ErrVersion, and a server asked to restore from it
// refuses and keeps its fresh-boot state: no inherited rounds, every unit
// at the constant cap, and a first round bit for bit a fresh server's.
func TestV1ImageRefused(t *testing.T) {
	v1 := filepath.Join("testdata", "v1_state.snap")
	data, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	if v := uint16(data[4]) | uint16(data[5])<<8; v != 1 {
		t.Fatalf("%s is version %d, want 1", v1, v)
	}
	if _, err := snapshot.Decode(data); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("v1 image decoded with %v, want ErrVersion", err)
	}

	boot := func() *scriptedServer {
		const units = 4
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			t.Fatal(err)
		}
		s := newScriptedServer(t, ServerConfig{
			Manager: mgr, Units: units, Interval: 2 * time.Second,
			StaleAfter: 3 * time.Second, DeadAfter: 10 * time.Second,
		}, time.Unix(1_700_000_030, 0).UTC())
		t.Cleanup(func() { s.Close() })
		return s
	}
	c, fresh := boot(), boot()
	if err := c.RestoreFromSnapshot(v1); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("restore from the v1 image: %v, want ErrVersion", err)
	}
	if c.Rounds() != 0 {
		t.Fatalf("refused restore left the server at round %d", c.Rounds())
	}
	for u, cp := range c.dps.Caps() {
		if cp != c.dps.ConstantCap() {
			t.Fatalf("after the refused restore unit %d is capped at %v, not the constant %v", u, cp, c.dps.ConstantCap())
		}
	}
	for _, s := range []*scriptedServer{c, fresh} {
		s.round(t, power.Vector{150, 40, 60, 5}, 0, 1, 2, 3)
	}
	if got, want := c.dps.Caps(), fresh.dps.Caps(); !slices.Equal(got, want) {
		t.Fatalf("first round after the refused restore decided %v, a fresh server %v", got, want)
	}
}

// TestRoundViewsConsistentWhileRingWraps reads /debug/rounds?n=K,
// /debug/why and /status while the decision loop laps a small ring many
// times. Ring slots are re-filled in place, so a reader that saw a slot
// mid-fill would return a round whose unit rows belong to two different
// rounds; every round returned must instead be internally consistent —
// its unit caps sum (in unit order, so bit for bit) to its own cap_sum_w
// — and a response's rounds must be consecutive, newest first. /status
// must likewise sum its own caps_w. Run under -race.
func TestRoundViewsConsistentWhileRingWraps(t *testing.T) {
	const (
		units  = 32
		rounds = 400
	)
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second, FlightRecorderSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.StatusHandler()
	get := func(url string, into any) bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d", url, rec.Code)
			return false
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Errorf("GET %s: %v", url, err)
			return false
		}
		return true
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(check func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					if !check() {
						return
					}
				}
			}
		}()
	}
	for _, url := range []string{"/debug/rounds?n=3", "/debug/rounds?n=4"} {
		reader(func() bool {
			var recs []telemetry.RoundRecord
			if !get(url, &recs) {
				return false
			}
			for i, r := range recs {
				var sum power.Watts
				for _, u := range r.Units {
					sum += power.Watts(u.CapW)
				}
				if len(r.Units) != units || float64(sum) != r.CapSumW {
					t.Errorf("round %d: %d unit rows summing to %v, cap_sum_w %v", r.Round, len(r.Units), sum, r.CapSumW)
					return false
				}
				if i > 0 && r.Round != recs[i-1].Round-1 {
					t.Errorf("rounds not consecutive newest-first: %d after %d", r.Round, recs[i-1].Round)
					return false
				}
			}
			return true
		})
	}
	for i := 0; i < 2; i++ { // two, so the spare status copy is contended
		reader(func() bool {
			var st Status
			if !get("/status", &st) {
				return false
			}
			var sum power.Watts
			for _, c := range st.Caps {
				sum += power.Watts(c)
			}
			if len(st.Caps) != units || float64(sum) != st.CapSumW {
				t.Errorf("/status: %d caps summing to %v, cap_sum_w %v", len(st.Caps), sum, st.CapSumW)
				return false
			}
			return true
		})
	}
	reader(func() bool {
		var rows []WhyRecord
		if !get("/debug/why?unit=5", &rows) {
			return false
		}
		for i, row := range rows {
			if row.Reason == "" || (i > 0 && row.Round >= rows[i-1].Round) {
				t.Errorf("why rows out of order or reasonless: %+v", rows)
				return false
			}
		}
		return true
	})

	readings := make(power.Vector, units)
	for i := 0; i < rounds; i++ {
		for u := range readings {
			readings[u] = power.Watts(30 + (i*17+u*29)%120)
		}
		setReadings(srv, readings)
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// allocBytesPerRound returns the heap bytes one warm DecideOnce
// allocates on a server of the given size, with the flight recorder's
// ring already lapped and the units split evenly over conns registered
// sessions (writes discarded) that every round pushes caps to.
func allocBytesPerRound(t *testing.T, units, conns int) float64 {
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager: mgr, Units: units, Interval: time.Second, FlightRecorderSize: 2,
		BlackboxPath: t.TempDir(), WatchEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, n := 0, units/max(conns, 1); i < conns; i++ {
		sc, _ := scriptedServerConn(t, proto.Hello{FirstUnit: power.UnitID(i * n), Units: n})
		defer sc.sess.Release()
		if err := srv.register(sc); err != nil {
			t.Fatal(err)
		}
	}
	readings := make(power.Vector, units)
	round := func() {
		for u := range readings {
			readings[u] += 0.5
		}
		setReadings(srv, readings)
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // lap the ring, grow the black box scratch
		round()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestDecideOnceAllocIndependentOfUnits is the alloc-check gate for the
// round record: everything DecideOnce does to observe a round — record,
// metrics, watchdog audit, black-box append — reuses retained memory, so
// the bytes a warm round allocates must not grow with the fleet. (The
// parent allocated 80 B per unit per round for its UnitRecord rows and
// cap clones: 1.25 MiB at 16 384 units.)
func TestDecideOnceAllocIndependentOfUnits(t *testing.T) {
	small, large := allocBytesPerRound(t, 64, 0), allocBytesPerRound(t, 4096, 0)
	t.Logf("warm DecideOnce allocates %.0f B at 64 units, %.0f B at 4096", small, large)
	// 64x the units; allow a fixed slack for runtime noise, far below the
	// 4096 units x 8 B a single per-unit float column would cost.
	if large > small+4096 {
		t.Errorf("warm DecideOnce allocates %.0f B/round at 4096 units vs %.0f B at 64: it grows with the unit count", large, small)
	}
	// The same for the connections it pushes to: the target list is the
	// registered slice itself and the pushed list a retained buffer. (A
	// fresh pair a round was 16 B per connection: 16 kB at 1 024.)
	few, many := allocBytesPerRound(t, 4096, 64), allocBytesPerRound(t, 4096, 1024)
	t.Logf("warm DecideOnce allocates %.0f B pushing to 64 connections, %.0f B to 1024", few, many)
	if many > few+4096 {
		t.Errorf("warm DecideOnce allocates %.0f B/round with 1024 connections vs %.0f B with 64: it grows with the connection count", many, few)
	}
}

// restoreRoundAllocs boots a server from a donor's snapshot file and
// returns how many heap objects RestoreFromSnapshot plus the first
// decision round allocate, that round writing a snapshot file of its
// own.
func restoreRoundAllocs(t *testing.T, units int) uint64 {
	t.Helper()
	dir := t.TempDir()
	boot := func(path string) *Server {
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second, SnapshotPath: path, SnapshotEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	donorPath := filepath.Join(dir, "donor.snap")
	donor := boot(donorPath)
	readings := make(power.Vector, units)
	for u := range readings {
		readings[u] = power.Watts(40 + (u*7)%100)
	}
	setReadings(donor, readings)
	for i := 0; i < 3; i++ {
		if _, err := donor.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := donor.Close(); err != nil {
		t.Fatal(err)
	}

	srv := boot(filepath.Join(dir, "successor.snap"))
	defer srv.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := srv.RestoreFromSnapshot(donorPath); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if srv.lastFileRound != srv.Rounds() {
		t.Fatalf("the round after the restore (%d) wrote no snapshot file (last at %d)", srv.Rounds(), srv.lastFileRound)
	}
	return after.Mallocs - before.Mallocs
}

// TestRestoreThenSnapshotAllocsIndependentOfUnits pins where a restored
// image lives: RestoreFromSnapshot decodes into the state the export side
// retains, ring slots in one backing array per column, so neither the
// restore nor the first image written after it allocates per unit. (The
// parent decoded into a State it then dropped — two slices per ring —
// and the first export allocated every column again.)
func TestRestoreThenSnapshotAllocsIndependentOfUnits(t *testing.T) {
	small, large := restoreRoundAllocs(t, 256), restoreRoundAllocs(t, 4096)
	t.Logf("restore + first snapshot-writing round: %d allocations at 256 units, %d at 4096", small, large)
	if large > small+32 {
		t.Errorf("restore + first snapshot-writing round allocates %d objects at 4096 units vs %d at 256: it grows with the unit count", large, small)
	}
}
