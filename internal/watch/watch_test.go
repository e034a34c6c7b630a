package watch

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dps/internal/telemetry"
	"dps/internal/telemetry/series"
)

func at(s int) time.Time { return time.Unix(1700000000+int64(s), 0).UTC() }

func alertState(t *testing.T, w *Watcher, rule string) Alert {
	t.Helper()
	for _, a := range w.Alerts() {
		if a.Rule == rule {
			return a
		}
	}
	t.Fatalf("no alert for rule %q", rule)
	return Alert{}
}

// TestRuleLifecycle is the table-driven state-transition test: each case
// feeds a timeline of per-second observations into one threshold rule and
// checks the state after every evaluation, covering immediate firing
// (for_ms=0), `for`-hysteresis, flap suppression (pending that lets go
// before `for` elapses never fires), resolution, and re-firing after
// resolve.
func TestRuleLifecycle(t *testing.T) {
	cases := []struct {
		name   string
		forMS  int64
		values []float64 // latest sample at t=0,1,2,... (threshold: > 10)
		states []string
		fired  uint64 // lifetime firing transitions at the end
	}{
		{
			name:   "immediate_fire_and_resolve",
			forMS:  0,
			values: []float64{5, 20, 20, 5, 5},
			states: []string{StateInactive, StateFiring, StateFiring, StateResolved, StateResolved},
			fired:  1,
		},
		{
			name:   "for_duration_holds_then_fires",
			forMS:  2000,
			values: []float64{20, 20, 20, 20},
			states: []string{StatePending, StatePending, StateFiring, StateFiring},
			fired:  1,
		},
		{
			name:   "flap_suppressed_by_for",
			forMS:  3000,
			values: []float64{20, 20, 5, 20, 20, 5},
			states: []string{StatePending, StatePending, StateInactive, StatePending, StatePending, StateInactive},
			fired:  0,
		},
		{
			name:   "refire_after_resolve",
			forMS:  0,
			values: []float64{20, 5, 20},
			states: []string{StateFiring, StateResolved, StateFiring},
			fired:  2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := series.NewStore(series.Config{})
			w := New(Config{
				Rules: []Rule{{
					Name: "r", Kind: KindThreshold, Series: "m",
					Op: ">", Value: 10, ForMS: tc.forMS,
				}},
				Store:          store,
				DisableBuiltin: true,
			})
			for i, v := range tc.values {
				store.Push("m", series.KindGauge, at(i), v)
				w.Evaluate(at(i))
				if got := alertState(t, w, "r"); got.State != tc.states[i] {
					t.Fatalf("t=%d (value %g): state %q, want %q", i, v, got.State, tc.states[i])
				}
			}
			if got := alertState(t, w, "r"); got.FiredCount != tc.fired {
				t.Errorf("fired %d times, want %d", got.FiredCount, tc.fired)
			}
		})
	}
}

func TestAbsenceRule(t *testing.T) {
	store := series.NewStore(series.Config{})
	w := New(Config{
		Rules: []Rule{{
			Name: "quiet", Kind: KindAbsence, Series: "m", MaxAgeMS: 2000,
		}},
		Store:          store,
		DisableBuiltin: true,
	})

	// Never-ingested series holds the absence condition immediately.
	w.Evaluate(at(0))
	if got := alertState(t, w, "quiet"); got.State != StateFiring {
		t.Fatalf("never-ingested: %q, want firing", got.State)
	}

	// Ingest resolves it; going silent past max_age fires it again.
	store.Push("m", series.KindGauge, at(1), 1)
	w.Evaluate(at(1))
	if got := alertState(t, w, "quiet"); got.State != StateResolved {
		t.Fatalf("after ingest: %q, want resolved", got.State)
	}
	w.Evaluate(at(2))
	if got := alertState(t, w, "quiet"); got.State != StateResolved {
		t.Fatalf("within max_age: %q, want resolved", got.State)
	}
	w.Evaluate(at(5))
	if got := alertState(t, w, "quiet"); got.State != StateFiring {
		t.Fatalf("stale: %q, want firing", got.State)
	}
}

func TestBurnRule(t *testing.T) {
	store := series.NewStore(series.Config{})
	w := New(Config{
		Rules: []Rule{{
			Name: "burn", Kind: KindBurn, Series: "err_rate",
			Op: ">", Value: 1, WindowMS: 3000,
		}},
		Store:          store,
		DisableBuiltin: true,
	})

	// One spike does not push a 4-sample window mean over 1.
	for i, v := range []float64{0, 3, 0, 0} {
		store.Push("err_rate", series.KindRate, at(i), v)
	}
	w.Evaluate(at(3))
	if got := alertState(t, w, "burn"); got.State != StateInactive {
		t.Fatalf("spike: %q (value %g), want inactive", got.State, got.Value)
	}
	// A sustained rate does.
	for i := 4; i < 8; i++ {
		store.Push("err_rate", series.KindRate, at(i), 2)
	}
	w.Evaluate(at(7))
	if got := alertState(t, w, "burn"); got.State != StateFiring {
		t.Fatalf("sustained: %q (value %g), want firing", got.State, got.Value)
	}
}

func TestBuiltinAudits(t *testing.T) {
	var logs []string
	reg := telemetry.NewRegistry()
	w := New(Config{
		Registry: reg,
		Logf:     func(f string, a ...any) { logs = append(logs, f) },
	})

	// A clean round keeps everything inactive; a cap sum of exactly the
	// budget, in deciwatts, is clean.
	w.ObserveRound(&telemetry.Round{Round: 1, Time: at(0), BudgetW: 100, CapSumDW: 1000, EnforcedDW: 1000, DecidedDW: 1000, HasStats: true})
	for _, name := range []string{RuleBudgetConservation, RuleHealthPinIntegrity, RuleProvenanceCoverage} {
		if got := alertState(t, w, name); got.State != StateInactive {
			t.Fatalf("clean round: %s = %q", name, got.State)
		}
	}

	// Violate all three invariants in round 2: each fires within the round
	// (builtins carry no `for` grace).
	w.ObserveRound(&telemetry.Round{
		Round: 2, Time: at(1), BudgetW: 100, CapSumDW: 1001,
		PinAudited: 2, PinViolations: 1,
		HasStats: true, ProvViolations: 3,
	})
	for _, name := range []string{RuleBudgetConservation, RuleHealthPinIntegrity, RuleProvenanceCoverage} {
		if got := alertState(t, w, name); got.State != StateFiring {
			t.Fatalf("violated round: %s = %q, want firing", name, got.State)
		}
	}
	if w.FiringCount() != 3 {
		t.Fatalf("FiringCount = %d, want 3", w.FiringCount())
	}

	// Recovery resolves within one round.
	w.ObserveRound(&telemetry.Round{Round: 3, Time: at(2), BudgetW: 100, CapSumDW: 990, HasStats: true})
	for _, name := range []string{RuleBudgetConservation, RuleHealthPinIntegrity, RuleProvenanceCoverage} {
		if got := alertState(t, w, name); got.State != StateResolved {
			t.Fatalf("recovered round: %s = %q, want resolved", name, got.State)
		}
	}

	// A provenance-blind round (no evidence) never fires the coverage
	// audit, whatever the cap deltas were.
	w.ObserveRound(&telemetry.Round{Round: 4, Time: at(3), BudgetW: 100, CapSumDW: 990, ProvViolations: 5})
	if got := alertState(t, w, RuleProvenanceCoverage); got.State != StateResolved {
		t.Fatalf("unaudited round moved provenance_coverage to %q", got.State)
	}

	// Metrics and logs observed the lifecycle.
	var exp strings.Builder
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dps_alerts_firing{rule="budget_conservation"} 0`,
		`dps_alert_transitions_total{rule="budget_conservation",to="firing"} 1`,
		`dps_alert_transitions_total{rule="budget_conservation",to="resolved"} 1`,
	} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if len(logs) == 0 {
		t.Error("no transition log lines emitted")
	}
}

func TestRuleValidate(t *testing.T) {
	good := Rule{Name: "r", Kind: KindThreshold, Series: "m", Value: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	bad := []Rule{
		{Kind: KindThreshold, Series: "m"},                               // no name
		{Name: "r", Kind: KindThreshold},                                 // no series
		{Name: "r", Kind: "nope", Series: "m"},                           // bad kind
		{Name: "r", Kind: KindThreshold, Series: "m", Op: ">="},          // bad op
		{Name: "r", Kind: KindThreshold, Series: "m", ForMS: -1},         // negative for
		{Name: "r", Kind: KindAbsence, Series: "m"},                      // absence without max_age
		{Name: "r", Kind: KindBurn, Series: "m"},                         // burn without window
		{Name: RuleBudgetConservation, Kind: KindThreshold, Series: "m"}, // builtin collision
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rule %d validated: %+v", i, r)
		}
	}
}

func TestNilWatcherIsSafe(t *testing.T) {
	var w *Watcher
	w.ObserveRound(&telemetry.Round{Round: 1})
	w.Evaluate(at(0))
	if w.Alerts() != nil || w.FiringCount() != 0 {
		t.Fatal("nil watcher returned state")
	}
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("nil watcher /alerts = %d %q, want 200 []", rec.Code, rec.Body.String())
	}
}

func TestHandlerJSON(t *testing.T) {
	w := New(Config{})
	w.ObserveRound(&telemetry.Round{Round: 1, Time: at(0), BudgetW: 100, CapSumDW: 1500})
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("/alerts = %d", rec.Code)
	}
	var alerts []Alert
	if err := json.Unmarshal(rec.Body.Bytes(), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 3 {
		t.Fatalf("%d alerts, want the 3 builtins", len(alerts))
	}
	// Sorted by rule name, so budget_conservation leads.
	if alerts[0].Rule != RuleBudgetConservation || alerts[0].State != StateFiring {
		t.Fatalf("alerts[0] = %+v", alerts[0])
	}
	if alerts[0].Message == "" {
		t.Error("firing alert carries no message")
	}
}
