package daemon

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/telemetry"
)

func TestStatusEndpoint(t *testing.T) {
	srv := newTestServer(t, 2)
	h := srv.StatusHandler()

	// Before any round: healthz must report not-ready.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("healthz before first round = %d, want 503", rec.Code)
	}

	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status = %d", rec.Code)
	}
	var st Status
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "DPS" || st.Units != 2 || st.Rounds != 1 {
		t.Errorf("status = %+v", st)
	}
	if len(st.Caps) != 2 || len(st.Readings) != 2 {
		t.Errorf("vectors: caps=%d readings=%d", len(st.Caps), len(st.Readings))
	}
	if st.CapSumW > st.BudgetW+1e-6 {
		t.Errorf("reported cap sum %v exceeds budget %v", st.CapSumW, st.BudgetW)
	}
	if st.Priority == nil {
		t.Error("DPS status missing priorities")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"dps_rounds_total 1",
		"dps_agents 0",
		"dps_budget_watts",
		"dps_unit_power_watts{unit=\"0\"}",
		"dps_unit_cap_watts{unit=\"1\"}",
		"dps_unit_high_priority{unit=\"0\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz after a round = %d", rec.Code)
	}
}

// maskTimings blanks the values of wall-time histogram series whose
// observations depend on the machine's clock, and the toolchain-dependent
// goversion label of dps_build_info, keeping the exposition's structure
// (names, labels, ordering) exact.
func maskTimings(body string) string {
	lines := strings.Split(body, "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "dps_stage_seconds_bucket") ||
			strings.HasPrefix(ln, "dps_stage_seconds_sum") {
			if j := strings.LastIndexByte(ln, ' '); j >= 0 {
				lines[i] = ln[:j] + " <T>"
			}
		}
		if strings.HasPrefix(ln, "dps_build_info{") {
			lines[i] = strings.Replace(ln, runtime.Version(), "<GO>", 1)
		}
	}
	return strings.Join(lines, "\n")
}

func TestMetricsGolden(t *testing.T) {
	srv := newTestServer(t, 2)
	// Pin the server clock so dps_decide_seconds observes exactly 0 and
	// the flight-recorder timestamps are fixed; only the per-stage
	// histograms (timed inside core.DPS) stay wall-clock dependent and
	// are masked.
	srv.now = func() time.Time { return time.Unix(1700000000, 0).UTC() }
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	got := maskTimings(rec.Body.String())

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s (UPDATE_GOLDEN=1 regenerates):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

func TestStageMetricsAndCounters(t *testing.T) {
	srv := newTestServer(t, 2)
	// Zero readings keep every unit quiet, so each round restores.
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, stage := range []string{"kalman", "stateless", "priority", "readjust"} {
		want := fmt.Sprintf("dps_stage_seconds_count{stage=%q} %d", stage, rounds)
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, want := range []string{
		"dps_restore_total 3",
		"dps_budget_violations_total 0",
		"dps_readjust_exhausted_total 0",
		fmt.Sprintf("dps_decide_seconds_count %d", rounds),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugRoundsEndpoint(t *testing.T) {
	cfg := core.DefaultConfig(2, testBudget(2))
	mgr, err := core.NewDPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: 2, Interval: time.Second, FlightRecorderSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.StatusHandler()

	// Before any round: an empty array, not an error.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds", nil))
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("empty recorder: code=%d body=%q", rec.Code, rec.Body.String())
	}

	for i := 0; i < 5; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/rounds = %d", rec.Code)
	}
	var recs []telemetry.RoundRecord
	if err := json.NewDecoder(rec.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	// Ring capacity 3: rounds 1-2 evicted, newest first.
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 (ring capacity)", len(recs))
	}
	for i, wantRound := range []uint64{5, 4, 3} {
		if recs[i].Round != wantRound {
			t.Errorf("record %d round = %d, want %d", i, recs[i].Round, wantRound)
		}
	}
	top := recs[0]
	if len(top.Units) != 2 {
		t.Fatalf("record carries %d units", len(top.Units))
	}
	if top.Units[1].Unit != 1 || top.Units[1].CapW <= 0 {
		t.Errorf("unit record = %+v", top.Units[1])
	}
	if top.Stages.Total <= 0 {
		t.Errorf("record stage timings = %+v, want positive total", top.Stages)
	}
	if top.CapSumW > top.BudgetW+1e-6 {
		t.Errorf("recorded cap sum %v exceeds budget %v", top.CapSumW, top.BudgetW)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=1", nil))
	recs = nil
	if err := json.NewDecoder(rec.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Round != 5 {
		t.Errorf("n=1 returned %+v", recs)
	}
}
