package daemon

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// newTracingServer builds a 2-unit DPS server with the span recorder
// enabled from the start.
func newTracingServer(t *testing.T, units int) *Server {
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager: mgr, Units: units, Interval: time.Second,
		TraceEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// setReadings injects a reading vector directly, standing in for agent
// report batches in tests that exercise the decision path alone. Like the
// ingest write sites it marks every unit it writes dirty — the controller
// trusts a clear bit to mean "reading unchanged".
func setReadings(srv *Server, readings power.Vector) {
	srv.imu.Lock()
	copy(srv.readings, readings)
	for u := range readings {
		srv.dirty.Mark(u)
	}
	srv.imu.Unlock()
}

// TestApplyEchoEndToEnd drives the full downstream path over a pipe: a
// handshake, a framed report, a cap push, and the agent's apply echo
// landing in the server's end-to-end latency histogram and span recorder.
func TestApplyEchoEndToEnd(t *testing.T) {
	srv := newTracingServer(t, 2)
	agent, sims := newTestAgent(t, 0, 2)

	client, server := net.Pipe()
	go srv.Handle(server)
	defer client.Close()

	if err := agent.Handshake(client); err != nil {
		t.Fatal(err)
	}
	for _, d := range sims {
		d.SetLoad(120)
		d.Advance(1)
	}
	if err := agent.ReportOnce(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Readings()[0] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("framed report never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := srv.DecideOnce(1)
		errc <- err
	}()
	if err := agent.ReceiveCaps(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// The echo is consumed by the connection goroutine; wait for the
	// histogram sample to land.
	h := srv.StatusHandler()
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if strings.Contains(rec.Body.String(), "dps_e2e_latency_seconds_count 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("apply echo never reached dps_e2e_latency_seconds")
		}
		time.Sleep(time.Millisecond)
	}

	// The wire round left its spans: ingest on the report, push on the cap
	// batch, apply from the echo — all scoped to round 1.
	seen := map[string]bool{}
	for _, sp := range srv.Trace().Last(0) {
		seen[sp.Name] = true
		if sp.Name == trace.SpanApply && sp.Trace != 1 {
			t.Errorf("apply span scoped to round %d, want 1", sp.Trace)
		}
	}
	for _, want := range []string{trace.SpanIngest, trace.SpanPush, trace.SpanApply, trace.SpanDecide} {
		if !seen[want] {
			t.Errorf("no %q span recorded; saw %v", want, seen)
		}
	}
}

// TestDebugTraceEndpoint asserts GET /debug/trace serves valid Chrome
// trace_event JSON with at least one complete event per pipeline stage
// per round.
func TestDebugTraceEndpoint(t *testing.T) {
	srv := newTracingServer(t, 2)
	const rounds = 3
	for i := 0; i < rounds; i++ {
		setReadings(srv, power.Vector{30, 100})
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace = %d", rec.Code)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/debug/trace is not valid trace_event JSON: %v", err)
	}
	perStage := map[string]map[float64]bool{} // stage -> set of trace ids
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M", "X":
		default:
			t.Errorf("unexpected phase %q in event %+v", ev.Ph, ev)
		}
		if ev.Ph != "X" {
			continue
		}
		id, ok := ev.Args["trace_id"].(float64)
		if !ok {
			t.Fatalf("complete event %q lacks a trace_id arg: %+v", ev.Name, ev)
		}
		if perStage[ev.Name] == nil {
			perStage[ev.Name] = map[float64]bool{}
		}
		perStage[ev.Name][id] = true
	}
	for _, stage := range []string{
		trace.SpanKalman, trace.SpanStateless, trace.SpanPriority,
		trace.SpanReadjust, trace.SpanDecide,
	} {
		if len(perStage[stage]) != rounds {
			t.Errorf("stage %q covers %d rounds, want %d", stage, len(perStage[stage]), rounds)
		}
	}

	rec = httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?last=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad last parameter = %d, want 400", rec.Code)
	}
}

// TestDebugWhyEndpoint asserts GET /debug/why answers the tentpole
// question for one unit from the flight recorder.
func TestDebugWhyEndpoint(t *testing.T) {
	srv := newTestServer(t, 2)
	h := srv.StatusHandler()

	// Idle unit 0 under a pressed unit 1: round after round of MIMD cuts
	// on unit 0.
	for i := 0; i < 3; i++ {
		setReadings(srv, power.Vector{20, 100})
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/why?unit=0", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/why = %d", rec.Code)
	}
	var rows []WhyRecord
	if err := json.NewDecoder(rec.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no provenance rows for a unit whose cap was cut every round")
	}
	for i, row := range rows {
		if row.Reason == "" {
			t.Errorf("row %d has an empty reason: %+v", i, row)
		}
		if i > 0 && rows[i-1].Round <= row.Round {
			t.Errorf("rows not newest-first: %d then %d", rows[i-1].Round, row.Round)
		}
	}

	for _, bad := range []string{
		"/debug/why",            // unit missing
		"/debug/why?unit=9",     // out of range
		"/debug/why?unit=-1",    // negative
		"/debug/why?unit=x",     // not an integer
		"/debug/why?unit=0&n=0", // bad n
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Errorf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}

// TestDebugRoundsGolden pins the /debug/rounds JSON shape — including the
// provenance reason field — the way testdata/metrics.golden pins the
// Prometheus exposition. Stage timings are the only wall-clock dependent
// values and are zeroed before comparison.
func TestDebugRoundsGolden(t *testing.T) {
	srv := newTestServer(t, 2)
	srv.now = func() time.Time { return time.Unix(1700000000, 0).UTC() }
	for i := 0; i < 2; i++ {
		setReadings(srv, power.Vector{30, 100})
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=2", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/rounds = %d", rec.Code)
	}
	var rounds []telemetry.RoundRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &rounds); err != nil {
		t.Fatal(err)
	}
	for i := range rounds {
		rounds[i].Stages = telemetry.StageSeconds{}
	}
	masked, err := json.MarshalIndent(rounds, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(masked) + "\n"
	if !strings.Contains(got, `"reason"`) {
		t.Error("no unit carries a reason field; the golden round moved caps")
	}

	golden := filepath.Join("testdata", "rounds.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("/debug/rounds drifted from %s (UPDATE_GOLDEN=1 regenerates):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// The ?unit= filter narrows every record to that unit's row and
	// leaves the round-level fields untouched.
	rec = httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=2&unit=1", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/rounds?unit=1 = %d", rec.Code)
	}
	var filtered []telemetry.RoundRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered) != len(rounds) {
		t.Fatalf("unit filter changed record count: %d != %d", len(filtered), len(rounds))
	}
	for i, r := range filtered {
		if len(r.Units) != 1 || r.Units[0].Unit != 1 {
			t.Fatalf("record %d: want exactly unit 1, got %+v", i, r.Units)
		}
		if r.Round != rounds[i].Round || r.CapSumW != rounds[i].CapSumW {
			t.Fatalf("record %d: round-level fields drifted under the unit filter", i)
		}
		if r.Units[0].CapW != rounds[i].Units[1].CapW {
			t.Fatalf("record %d: filtered row differs from the unfiltered unit 1 row", i)
		}
	}

	rec = httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?unit=-1", nil))
	if rec.Code != 400 {
		t.Fatalf("/debug/rounds?unit=-1 = %d, want 400", rec.Code)
	}

	// A unit beyond every record's range yields records with no unit rows
	// rather than an error: the recorder does not know the unit universe.
	rec = httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=1&unit=99", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/rounds?unit=99 = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 || len(filtered[0].Units) != 0 {
		t.Fatalf("out-of-range unit filter: want 1 record with 0 unit rows, got %+v", filtered)
	}
}
