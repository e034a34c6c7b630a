package daemon

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dps/internal/baseline"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/stateless"
	"dps/internal/telemetry"
	"dps/internal/telemetry/series"
)

// The per-unit families — dps_unit_power_watts, dps_unit_cap_watts,
// dps_unit_high_priority and dps_unit_health — are views of the newest
// round record. These tests hold them to the per-round gauge loop they
// replaced, kept below as the oracle, and to what a view promises beyond
// it: one scrape of a family is one round.

// gaugeOracle is the per-unit metrics as the decision loop used to keep
// them: one registered gauge per unit and family, registered at NewServer
// with the manager's caps, and set from every published round record.
type gaugeOracle struct {
	reg                      *telemetry.Registry
	power, cap, prio, health []*telemetry.Gauge
	sampler                  *series.Sampler
}

// newGaugeOracle registers the gauges for cfg; call it where NewServer
// ran, before any restore moves the manager's caps.
func newGaugeOracle(cfg ServerConfig) *gaugeOracle {
	_, isDPS := cfg.Manager.(*core.DPS)
	o := &gaugeOracle{reg: telemetry.NewRegistry()}
	initialCaps := cfg.Manager.Caps()
	for u := 0; u < cfg.Units; u++ {
		lbl := telemetry.Label{Key: "unit", Value: strconv.Itoa(u)}
		o.power = append(o.power, o.reg.Gauge("dps_unit_power_watts", "Last reported power per unit.", lbl))
		o.cap = append(o.cap, o.reg.Gauge("dps_unit_cap_watts", "Assigned cap per unit.", lbl))
		o.cap[u].Set(float64(initialCaps[u]))
		if isDPS {
			o.prio = append(o.prio, o.reg.Gauge("dps_unit_high_priority", "DPS priority flag per unit.", lbl))
		}
		if cfg.StaleAfter > 0 || cfg.DeadAfter > 0 {
			o.health = append(o.health, o.reg.Gauge("dps_unit_health", "Unit health state (0 fresh, 1 stale, 2 dead).", lbl))
		}
	}
	o.sampler = series.NewSampler(o.reg, series.NewStore(series.Config{RawInterval: cfg.Interval}))
	return o
}

// observe is observeRound's and recordHealthLocked's per-unit loops as
// they stood, fed a published round record.
func (o *gaugeOracle) observe(rec *telemetry.Round) {
	for u := range rec.Cap {
		o.power[u].Set(float64(rec.Reading[u]))
		o.cap[u].Set(float64(rec.Cap[u]))
	}
	for u, hp := range rec.Prio {
		v := 0.0
		if hp {
			v = 1
		}
		o.prio[u].Set(v)
	}
	for u, h := range rec.Health {
		o.health[u].Set(float64(h))
	}
}

// unitLines returns the per-unit families' lines of reg's exposition,
// HELP and TYPE included.
func unitLines(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if strings.HasPrefix(name, "dps_unit_") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// checkParity compares srv's per-unit families with the oracle's gauges:
// the /metrics bytes, and after one more sampler scrape on each side at
// the server's clock, every stored dps_unit_* series point for point.
func checkParity(t *testing.T, step string, srv *Server, o *gaugeOracle) {
	t.Helper()
	if got, want := unitLines(t, srv.Telemetry()), unitLines(t, o.reg); got != want {
		t.Fatalf("%s: /metrics per-unit families differ from the gauge oracle\ngot:\n%s\nwant:\n%s", step, got, want)
	}
	now := srv.now()
	srv.SampleOnce()
	o.sampler.SampleOnce(now)
	var keys []string
	for _, k := range srv.Series().Names() {
		if strings.HasPrefix(k, "dps_unit_") {
			keys = append(keys, k)
		}
	}
	if want := o.sampler.Store().Names(); !reflect.DeepEqual(keys, want) {
		t.Fatalf("%s: sampler store keys %v, oracle %v", step, keys, want)
	}
	for _, k := range keys {
		got, _ := srv.Series().Query(k, 0, now)
		want, _ := o.sampler.Store().Query(k, 0, now)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stored series %s = %v, oracle %v", step, k, got.Points, want.Points)
		}
	}
}

// TestUnitFamiliesMatchGaugeOracle drives a scripted run through a DPS
// server and a health-blind policy, with health on, units going stale and
// dead, Algorithm 3's restore, a snapshot restore into a new process
// generation and a two-slot flight recorder that wraps every other round,
// and after every step requires the per-unit families to read what the
// per-round gauge loop would have: on /metrics and in the series store.
func TestUnitFamiliesMatchGaugeOracle(t *testing.T) {
	dir := t.TempDir()
	start := time.Unix(1_700_000_000, 0).UTC()
	config := func(mgr core.Manager, units int) ServerConfig {
		return ServerConfig{
			Manager: mgr, Units: units, Interval: 2 * time.Second,
			StaleAfter: 3 * time.Second, DeadAfter: 10 * time.Second,
			FlightRecorderSize: 2, SeriesEnabled: true,
		}
	}
	boot := func(cfg ServerConfig, at time.Time) (*scriptedServer, *gaugeOracle) {
		s := newScriptedServer(t, cfg, at)
		o := newGaugeOracle(cfg)
		checkParity(t, "boot", s.Server, o)
		return s, o
	}
	round := func(s *scriptedServer, o *gaugeOracle, step string, readings power.Vector, reporting ...int) {
		t.Helper()
		s.round(t, readings, reporting...)
		s.recorder.Each(1, o.observe)
		checkParity(t, step, s.Server, o)
	}

	const units = 4
	newDPS := func() core.Manager {
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	snap := filepath.Join(dir, "a.snap")
	cfgA := config(newDPS(), units)
	cfgA.SnapshotPath = snap
	a, oa := boot(cfgA, start)
	round(a, oa, "A1", power.Vector{150, 30, 90, 140}, 0, 1, 2, 3)
	round(a, oa, "A2", power.Vector{150, 30, 95, 140}, 0, 1, 2, 3)
	for i := 0; i < 3; i++ { // everything quiet: Algorithm 3 restores
		round(a, oa, fmt.Sprintf("A%d quiet", 3+i), power.Vector{5, 5, 5, 5}, 0, 1, 2, 3)
	}
	for i := 0; i < 7; i++ { // units 2 and 3 fall silent: stale, then dead
		round(a, oa, fmt.Sprintf("A%d silent", 6+i), power.Vector{150 - power.Watts(i), 40, 5, 5}, 0, 1)
	}
	if a.Snapshot().DeadUnits != 2 {
		t.Fatalf("script left %d dead units, want 2", a.Snapshot().DeadUnits)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process generation from A's final image: before its first
	// round it reads what a fresh server does, then the restored rounds.
	c, oc := boot(config(newDPS(), units), a.now)
	if err := c.RestoreFromSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	checkParity(t, "C restored", c.Server, oc)
	for i := 0; i < 3; i++ {
		round(c, oc, fmt.Sprintf("C%d", i+1), power.Vector{120, 60 + power.Watts(i), 90, 20}, 0, 1, 2, 3)
	}

	// A health-blind policy: no priority family, caps pinned by delivery.
	slurm, err := baseline.NewSLURM(3, testBudget(3), stateless.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, ob := boot(config(slurm, 3), start)
	round(b, ob, "B1", power.Vector{120, 100, 20}, 0, 1, 2)
	for i := 0; i < 5; i++ {
		round(b, ob, fmt.Sprintf("B%d", i+2), power.Vector{120 + power.Watts(i), 100, 20}, 0, 1)
	}
}

// TestUnitColumnScrapeIsOneRound: a /metrics scrape racing DecideOnce
// copies dps_unit_cap_watts from one round record, never a mix of two, so
// the caps one scrape shows sum, bit for bit, to the CapSumW of a round
// the recorder held (or, before the first round, to the manager's
// initial caps). Under -race it is also the scrape-versus-round race
// test of the column read.
func TestUnitColumnScrapeIsOneRound(t *testing.T) {
	const units, rounds = 256, 200
	mgr, err := core.NewDPS(core.DefaultConfig(units, power.Budget{Total: units * 80, UnitMax: 165, UnitMin: 10}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second, FlightRecorderSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	held := map[float64]bool{float64(mgr.Caps().Sum()): true}

	done := make(chan struct{})
	var seen []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b bytes.Buffer
		for {
			select {
			case <-done:
				return
			default:
			}
			b.Reset()
			if err := srv.Telemetry().WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			sum, n := 0.0, 0
			for _, line := range strings.Split(b.String(), "\n") {
				if !strings.HasPrefix(line, "dps_unit_cap_watts{") {
					continue
				}
				v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				if err != nil {
					t.Error(err)
					return
				}
				sum += v
				n++
			}
			if n != units {
				t.Errorf("a scrape shows %d caps, want %d", n, units)
				return
			}
			seen = append(seen, sum)
			runtime.Gosched()
		}
	}()

	rng := rand.New(rand.NewSource(7))
	readings := make(power.Vector, units)
	for i := 0; i < rounds; i++ {
		for u := range readings {
			readings[u] = power.Watts(10 + rng.Float64()*150)
		}
		setReadings(srv, readings)
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		srv.recorder.Each(1, func(r *telemetry.Round) { held[r.CapSumW] = true })
	}
	close(done)
	wg.Wait()
	if len(seen) == 0 {
		t.Fatal("no scrape completed while the rounds ran")
	}
	for i, sum := range seen {
		if !held[sum] {
			t.Fatalf("scrape %d of %d: caps sum to %v W, which no held round delivered: a torn column", i, len(seen), sum)
		}
	}
	t.Logf("%d scrapes over %d rounds, each one round's caps", len(seen), rounds)
}

// TestMetricsScrapeAllocsIndependentOfUnits: a warm /metrics scrape reads
// each per-unit family into scratch the previous scrape left, so it
// allocates the same at 64 units as at 4 096.
func TestMetricsScrapeAllocsIndependentOfUnits(t *testing.T) {
	allocs := func(units int) float64 {
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Manager: mgr, Units: units, Interval: time.Second,
			StaleAfter: time.Minute, DeadAfter: 2 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		readings := make(power.Vector, units)
		for u := range readings {
			readings[u] = power.Watts(40 + (u*7)%100)
		}
		setReadings(srv, readings)
		for i := 0; i < 3; i++ {
			if _, err := srv.DecideOnce(1); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		if err := srv.Telemetry().WritePrometheus(&b); err != nil { // warm
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			b.Reset()
			_ = srv.Telemetry().WritePrometheus(&b)
		})
	}
	small, large := allocs(64), allocs(4096)
	t.Logf("a warm scrape allocates %v times at 64 units, %v at 4096", small, large)
	if small != large {
		t.Errorf("a warm scrape allocates %v times at 4096 units vs %v at 64: it grows with the unit count", large, small)
	}
}
