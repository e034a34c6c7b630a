package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dps/internal/blackbox"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// traceServer serves a recorder's trace export at /debug/trace, like a
// daemon or agent debug mux does.
func traceServer(t *testing.T, r *trace.Recorder) (addr string, done func()) {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("GET /debug/trace", r.Handler())
	srv := httptest.NewServer(mux)
	return strings.TrimPrefix(srv.URL, "http://"), srv.Close
}

// fleetRecorders builds a deterministic primary+agent span pair: three
// rounds of decide/push/apply on the controller clock and the agent's
// cap_apply spans skewed 2 s ahead, exactly the shape a live fleet
// records.
func fleetRecorders() (server, agent *trace.Recorder) {
	base := time.Unix(1_700_000_000, 0)
	skew := 2 * time.Second
	server = trace.NewRecorder(64)
	server.SetEnabled(true)
	agent = trace.NewRecorder(64)
	agent.SetEnabled(true)
	for round := uint64(1); round <= 3; round++ {
		start := base.Add(time.Duration(round) * time.Second)
		server.Record(round, trace.SpanDecide, trace.LaneDecide, -1, start, 2*time.Millisecond)
		server.Record(round, trace.SpanPush, trace.LanePush, 0, start.Add(2*time.Millisecond), 100*time.Microsecond)
		applyAt := start.Add(3 * time.Millisecond)
		server.Record(round, trace.SpanApply, trace.LaneAgent, 0, applyAt, time.Millisecond)
		agent.Record(round, trace.SpanCapApply, trace.LaneAgent, 0, applyAt.Add(skew), time.Millisecond)
		agent.Record(round, trace.SpanRead, trace.LaneAgent, 0, start.Add(skew-10*time.Millisecond), time.Millisecond)
	}
	return server, agent
}

// TestTraceMergeGolden pins the full dpsctl trace --merge output — event
// ordering, clock alignment, and process naming — against
// testdata/merge.golden (UPDATE_GOLDEN=1 regenerates).
func TestTraceMergeGolden(t *testing.T) {
	serverRec, agentRec := fleetRecorders()
	srvAddr, closeSrv := traceServer(t, serverRec)
	defer closeSrv()
	agAddr, closeAg := traceServer(t, agentRec)
	defer closeAg()

	var buf bytes.Buffer
	client := &http.Client{Timeout: 2 * time.Second}
	if err := runTrace(&buf, client, []string{srvAddr, agAddr}, true); err != nil {
		t.Fatal(err)
	}
	// The ephemeral httptest ports name the processes; normalize them so
	// the golden file is stable.
	got := bytes.ReplaceAll(buf.Bytes(), []byte(srvAddr), []byte("primary:9070"))
	got = bytes.ReplaceAll(got, []byte(agAddr), []byte("agent:9073"))

	goldenPath := filepath.Join("testdata", "merge.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (UPDATE_GOLDEN=1 regenerates): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged trace drifted from %s (UPDATE_GOLDEN=1 regenerates)\ngot:\n%s\nwant:\n%s",
			goldenPath, got, want)
	}

	// Structural assertions independent of the golden bytes: spans are
	// time-ordered and each agent cap_apply aligns into its controller
	// round's window despite the 2 s skew.
	events, err := trace.ParseEvents(got)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	var prevTs float64
	var capApplies int
	for _, ev := range events {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < prevTs {
			t.Fatalf("events out of order: %v after %v", ev.Ts, prevTs)
		}
		prevTs = ev.Ts
		if ev.Name != trace.SpanCapApply {
			continue
		}
		capApplies++
		round := uint64(ev.Args["trace_id"].(float64))
		roundStart := float64(base.Add(time.Duration(round)*time.Second).UnixNano()) / 1e3
		if ev.Ts < roundStart || ev.Ts >= roundStart+1e6 {
			t.Errorf("cap_apply of round %d at %v µs, outside its round window [%v, %v)",
				round, ev.Ts, roundStart, roundStart+1e6)
		}
	}
	if capApplies != 3 {
		t.Errorf("merged trace carries %d cap_apply spans, want 3", capApplies)
	}
}

func TestRunTraceWithoutMergePassesThrough(t *testing.T) {
	serverRec, _ := fleetRecorders()
	addr, closeSrv := traceServer(t, serverRec)
	defer closeSrv()
	var buf bytes.Buffer
	client := &http.Client{Timeout: 2 * time.Second}
	if err := runTrace(&buf, client, []string{addr}, false); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseEvents(buf.Bytes())
	if err != nil {
		t.Fatalf("pass-through output is not a trace file: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("pass-through trace is empty")
	}
}

func TestRunTraceAllDown(t *testing.T) {
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if err := runTrace(&bytes.Buffer{}, client, []string{"127.0.0.1:1"}, true); err == nil {
		t.Fatal("merge over a dead fleet succeeded")
	}
}

func TestRunStatusMixedFleet(t *testing.T) {
	ctrl := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/status" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"policy": "dps", "units": 4, "agents": 2, "rounds": 42,
			"budget_w": 440.0, "cap_sum_w": 440.0, "alerts_firing": 1,
			"readings_w": []float64{100, 110, 90, 95}, "caps_w": []float64{110, 110, 110, 110},
		})
	}))
	defer ctrl.Close()
	agent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "dps_agent_reports_total 7")
	}))
	defer agent.Close()

	ctrlAddr := strings.TrimPrefix(ctrl.URL, "http://")
	agentAddr := strings.TrimPrefix(agent.URL, "http://")
	var buf bytes.Buffer
	client := &http.Client{Timeout: 2 * time.Second}
	if err := runStatus(&buf, client, []string{ctrlAddr, agentAddr, "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"controller", "dps", "42", "agent", "down"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}

	// A fleet with nothing listening is an error, not an empty table.
	if err := runStatus(&bytes.Buffer{}, &http.Client{Timeout: 200 * time.Millisecond},
		[]string{"127.0.0.1:1"}); err == nil {
		t.Error("all-down fleet reported success")
	}
}

func TestRunTopSortsByPressure(t *testing.T) {
	ctrl := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"policy": "dps", "units": 3, "rounds": 7, "budget_w": 330.0, "cap_sum_w": 330.0,
			"readings_w": []float64{50, 109, 80}, "caps_w": []float64{110, 110, 110},
			"high_priority": []bool{false, true, false},
		})
	}))
	defer ctrl.Close()
	var buf bytes.Buffer
	client := &http.Client{Timeout: 2 * time.Second}
	if err := runTop(&buf, client, []string{strings.TrimPrefix(ctrl.URL, "http://")}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header comment + column header + unit rows; unit 1 (109/110) first.
	if len(lines) != 5 {
		t.Fatalf("top printed %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[2], "1") {
		t.Errorf("hottest unit not first: %q", lines[2])
	}
}

func TestBlackboxDumpAndTail(t *testing.T) {
	dir := t.TempDir()
	w, err := blackbox.Open(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(1); round <= 4; round++ {
		r := telemetry.Round{
			Round: round, Time: time.Unix(int64(round), 0), Interval: 1,
			BudgetW: 220, CapSumW: 220, Elapsed: time.Millisecond,
			Reading: power.Vector{100}, Cap: power.Vector{110}, Reason: make([]trace.Reason, 1),
		}
		if _, _, err := w.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := runBlackboxDump(&buf, dir, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump -json emitted %d lines, want 4", len(lines))
	}
	var first blackbox.Round
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Round != 1 || first.Units[0].CapDW != 1100 {
		t.Errorf("first dumped round = %+v", first)
	}

	buf.Reset()
	if err := runBlackboxDump(&buf, dir, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ROUND") || !strings.Contains(buf.String(), "220.0") {
		t.Errorf("table dump:\n%s", buf.String())
	}

	buf.Reset()
	if err := runBlackboxTail(&buf, dir, 2); err != nil {
		t.Fatal(err)
	}
	tailLines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(tailLines) != 3 || !strings.HasPrefix(tailLines[1], "3") || !strings.HasPrefix(tailLines[2], "4") {
		t.Errorf("tail 2 printed wrong rounds:\n%s", buf.String())
	}

	if err := runBlackboxDump(&bytes.Buffer{}, filepath.Join(dir, "missing"), false); err == nil {
		t.Error("dump of a missing directory succeeded")
	}
}

// TestBlackboxDumpParentSegment decodes a segment the commit before the
// round record (a88cf7a) wrote and requires `blackbox dump -json` to
// print exactly what that commit's dpsctl printed for it.
func TestBlackboxDumpParentSegment(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_blackbox_dump.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runBlackboxDump(&got, filepath.Join("..", "..", "internal", "blackbox", "testdata", "parent"), true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("dump of the parent's segment drifted:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
