package daemon

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/telemetry/series"
	"dps/internal/trace"
	"dps/internal/watch"
)

// newWatchServer builds a watch+series-enabled server around mgr with a
// stubbed, manually advanced clock.
func newWatchServer(t *testing.T, mgr core.Manager, units int) (*Server, *time.Time) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Manager:       mgr,
		Units:         units,
		Interval:      time.Second,
		SeriesEnabled: true,
		WatchEnabled:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	srv.now = func() time.Time { return now }
	return srv, &now
}

func watchAlert(t *testing.T, srv *Server, rule string) watch.Alert {
	t.Helper()
	for _, a := range srv.Watcher().Alerts() {
		if a.Rule == rule {
			return a
		}
	}
	t.Fatalf("no alert %q", rule)
	return watch.Alert{}
}

// inflatedManager scales its inner manager's caps by 1.5 in decision
// rounds [from, until), counted from 1: a cap vector over the budget at a
// known round. It hides the DPS stats API, so the caps are delivered
// through the plain Decide path, as a buggy controller's would be.
type inflatedManager struct {
	core.Manager
	from, until, round int
	out                power.Vector
}

func (m *inflatedManager) Decide(snap core.Snapshot) power.Vector {
	caps := m.Manager.Decide(snap)
	if m.round++; m.round < m.from || m.round >= m.until {
		return caps
	}
	m.out = m.out[:0]
	for _, c := range caps {
		m.out = append(m.out, 1.5*c)
	}
	return m.out
}

// TestWatchBudgetFaultFiresWithinOneRound is the acceptance-criteria
// chaos test at the daemon layer: a manager inflates its caps past the
// budget at a known round; budget_conservation must fire
// within that exact round and resolve within one round of recovery.
func TestWatchBudgetFaultFiresWithinOneRound(t *testing.T) {
	const units = 4
	inner, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	// Fault window: rounds [3,5), the cap sum ~50% over.
	srv, now := newWatchServer(t, &inflatedManager{Manager: inner, from: 3, until: 5}, units)

	states := make([]string, 0, 7)
	for round := 1; round <= 7; round++ {
		setReadings(srv, power.Vector{120, 120, 120, 120})
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		states = append(states, watchAlert(t, srv, watch.RuleBudgetConservation).State)
		*now = now.Add(time.Second)
	}

	want := []string{
		watch.StateInactive, watch.StateInactive, // healthy rounds 1-2
		watch.StateFiring, watch.StateFiring, // faulted rounds 3-4
		watch.StateResolved, watch.StateResolved, watch.StateResolved, // recovered
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("budget_conservation per round = %v, want %v", states, want)
		}
	}
	if a := watchAlert(t, srv, watch.RuleBudgetConservation); a.FiredCount != 1 {
		t.Errorf("fired %d times across one fault window, want 1", a.FiredCount)
	}

	// The lifecycle is visible in /status and the exposition.
	if s := srv.Snapshot(); s.AlertsFiring != 0 {
		t.Errorf("alerts_firing = %d after recovery, want 0", s.AlertsFiring)
	}
	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	var alerts []watch.Alert
	if err := json.Unmarshal(rec.Body.Bytes(), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 3 {
		t.Fatalf("/alerts returned %d rules, want the 3 builtins", len(alerts))
	}
}

// TestWatchCleanRoundsStayQuiet pins the no-false-positive side: a healthy
// DPS daemon run of its FuzzServer seed never moves any builtin audit off
// inactive.
func TestWatchCleanRoundsStayQuiet(t *testing.T) {
	for _, a := range runServerSeed(t, "clean").primary.Watcher().Alerts() {
		if a.State != watch.StateInactive {
			t.Errorf("rule %s = %s after clean rounds (value %g, %s)", a.Rule, a.State, a.Value, a.Message)
		}
	}
}

// TestWatchRuleOverSampledSeries drives the full self-monitoring path:
// decision rounds update registry gauges, SampleOnce scrapes them into
// the series store, and a configured threshold rule with a for-duration
// walks pending → firing on the sampled history.
func TestWatchRuleOverSampledSeries(t *testing.T) {
	const units = 2
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager:      mgr,
		Units:        units,
		Interval:     time.Second,
		WatchEnabled: true,
		WatchRules: []watch.Rule{{
			Name: "cap_sum_low", Kind: watch.KindThreshold,
			Series: "dps_cap_sum_watts", Op: "<", Value: 1000, ForMS: 2000,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Series() == nil {
		t.Fatal("configured watch rules did not imply a series store")
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	srv.now = func() time.Time { return now }

	states := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		setReadings(srv, power.Vector{100, 100})
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		srv.SampleOnce()
		states = append(states, watchAlert(t, srv, "cap_sum_low").State)
		now = now.Add(time.Second)
	}
	want := []string{watch.StatePending, watch.StatePending, watch.StateFiring, watch.StateFiring}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("cap_sum_low per scrape = %v, want %v", states, want)
		}
	}
}

// TestDebugSeriesEndpoint pins the /debug/series wiring: sampled daemon
// metrics are queryable over HTTP with deterministic timestamps.
func TestDebugSeriesEndpoint(t *testing.T) {
	srv, now := newWatchServer(t, mustDPS(t, 2), 2)
	for i := 0; i < 3; i++ {
		setReadings(srv, power.Vector{50, 60})
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		srv.SampleOnce()
		*now = now.Add(time.Second)
	}

	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series?name=dps_cap_sum_watts", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/series = %d: %s", rec.Code, rec.Body.String())
	}
	var out series.Series
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 3 || out.Kind != series.KindGauge {
		t.Fatalf("dps_cap_sum_watts history = %+v", out)
	}

	// The index lists sampled series; per-unit gauges carry their label
	// signature in the key.
	rec = httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series", nil))
	var idx struct {
		Series []string `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range idx.Series {
		if name == `dps_unit_cap_watts{unit="1"}` {
			found = true
		}
	}
	if !found {
		t.Fatalf("index missing labeled unit series: %v", idx.Series)
	}
}

// TestDebugSeriesAbsentWhenDisabled pins the zero-cost-off contract's
// visible half: without SeriesEnabled there is no store and no endpoint.
func TestDebugSeriesAbsentWhenDisabled(t *testing.T) {
	srv := newTestServer(t, 2)
	if srv.Series() != nil || srv.Watcher() != nil {
		t.Fatal("disabled server built self-monitoring state")
	}
	srv.SampleOnce() // must be a no-op, not a panic
	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/series", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/series on a disabled server = %d, want 404", rec.Code)
	}
	// /alerts still exists and serves an empty list.
	rec = httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("/alerts on a disabled server = %d, want 200", rec.Code)
	}
}

func mustDPS(t *testing.T, units int) *core.DPS {
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestSeriesAdmitsDerivedSeriesOnWideFleet is the regression for series
// admission on a fleet wider than the store: with more per-unit gauges
// than MaxSeries, the first scrape used to hand every slot to
// dps_unit_* gauges (rates and quantiles have no point until the second
// scrape), so dps_decide_seconds:p99 and every counter rate were refused
// for good and a watch rule on them read "no samples" forever. Series
// are admitted when first seen, and scalar families sort ahead of the
// per-unit ones.
func TestSeriesAdmitsDerivedSeriesOnWideFleet(t *testing.T) {
	const fleet = 1100 // > the default MaxSeries of 1024
	mgr, err := core.NewDPS(core.DefaultConfig(fleet, testBudget(fleet)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager: mgr, Units: fleet, Interval: time.Second,
		WatchEnabled: true,
		WatchRules: []watch.Rule{{
			Name: "slow_decide", Kind: watch.KindThreshold,
			Series: "dps_decide_seconds:p99", Op: ">", Value: 10,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if max := srv.Series().Config().MaxSeries; fleet <= max {
		t.Fatalf("fleet of %d units does not exceed MaxSeries %d", fleet, max)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	srv.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		srv.SampleOnce()
		now = now.Add(time.Second)
	}
	for _, key := range []string{"dps_decide_seconds:p99", "dps_decide_seconds:count", "dps_rounds_total"} {
		if _, ok := srv.Series().Latest(key); !ok {
			t.Errorf("series %s has no samples after three scrapes", key)
		}
	}
	if a := watchAlert(t, srv, "slow_decide"); strings.Contains(a.Message, "no samples") {
		t.Errorf("rule on a histogram-derived series still blind: %q", a.Message)
	}
	if srv.Series().Dropped() == 0 {
		t.Error("no pushes dropped: the fleet did not overflow the store, the test proves nothing")
	}
}

// TestAllFreshFleetIsDeliveredUntouched pins the delivery-side contract on
// a healthy 16k fleet with health tracking on (nothing ever goes stale):
// a round in which no unit needed a pin delivers the manager's own vector.
// The rescale after pinning exists to absorb what pinning added; applied
// to a vector core had already clamped, it answered the float noise of a
// 16 384-term sum by rescaling every cap ~1e-9 W, stamping the fleet
// degraded_deliver — and the next, unrescaled round then differed from
// PrevCap with reason none, which is the provenance_coverage alarm.
func TestAllFreshFleetIsDeliveredUntouched(t *testing.T) {
	const units = 16384
	rounds := 400
	if testing.Short() {
		rounds = 120
	}
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager: mgr, Units: units, Interval: time.Second,
		StaleAfter: time.Hour, WatchEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase traffic, closed loop: jobs of 256 units alternate a high and a
	// low draw on staggered periods, each reading clipped at the cap
	// decided the round before, with σ = 2 W meter noise.
	rng := rand.New(rand.NewSource(1))
	readings := make(power.Vector, units)
	caps := mgr.Caps().Clone()
	rescaled, degraded, unexplained := 0, 0, 0
	for round := 0; round < rounds; round++ {
		for u := range readings {
			job := u / 256
			draw := 65.0 + float64(u%7)
			if (round+11*job)/(20+job%40)%2 == 0 {
				draw += 80
			}
			draw = min(draw, float64(caps[u])) + rng.NormFloat64()*2
			readings[u] = power.Watts(max(draw, 0))
		}
		setReadings(srv, readings)
		delivered, err := srv.DecideOnce(1)
		if err != nil {
			t.Fatal(err)
		}
		if &delivered[0] != &mgr.Caps()[0] {
			rescaled++
		}
		srv.FlightRecorder().Each(1, func(rec *telemetry.Round) {
			unexplained += rec.ProvViolations
			for _, r := range rec.Reason {
				if r == trace.ReasonDegradedDeliver {
					degraded++
				}
			}
		})
		copy(caps, delivered)
	}
	if rescaled != 0 || degraded != 0 || unexplained != 0 {
		t.Errorf("%d/%d all-fresh rounds delivered a clone of the manager's vector, %d degraded_deliver reasons, %d cap moves without a reason; want 0, 0, 0",
			rescaled, rounds, degraded, unexplained)
	}
	for _, a := range srv.Watcher().Alerts() {
		if a.State != watch.StateInactive || a.FiredCount != 0 {
			t.Errorf("rule %s = %s (fired %d) on a healthy fleet: %s", a.Rule, a.State, a.FiredCount, a.Message)
		}
	}
}
