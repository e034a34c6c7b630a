package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// TestViewsMatchEncodingJSON is the differential check of the streamed
// JSON views: /status and /debug/rounds (n= and unit= forms, in and out
// of range) must answer byte for byte what json.NewEncoder writes for
// Snapshot() and for FlightRecorder.Last's RoundRecords, status code
// included. A 2 048-unit DPS server is driven through real rounds —
// priorities, a restore, units going stale and dead, inherited rounds —
// and then its recorder is fed random records: degraded_deliver and every
// other reason, policies without priorities or health, off-grid, tiny,
// huge, negative and signed-zero numbers, and, last, values
// encoding/json refuses. Under -short (the race run) the fleet is 256
// units.
func TestViewsMatchEncodingJSON(t *testing.T) {
	units := 2048
	if testing.Short() {
		units = 256
	}
	rng := rand.New(rand.NewSource(7))
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	s := newScriptedServer(t, ServerConfig{
		Manager: mgr, Units: units, Interval: 2 * time.Second,
		StaleAfter: 3 * time.Second, DeadAfter: 10 * time.Second, FlightRecorderSize: 6,
	}, time.Unix(1_700_000_000, 0).UTC())
	defer s.Close()
	h := s.StatusHandler()

	encode := func(v any) (int, string) {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			return 500, err.Error() + "\n"
		}
		return 200, b.String()
	}
	same := func(url string, code int, want string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if got := rec.Body.String(); rec.Code != code || got != want {
			t.Fatalf("GET %s: %d, %d bytes; encoding/json: %d, %d bytes\ngot:  %.300s\nwant: %.300s", url, rec.Code, len(got), code, len(want), got, want)
		}
	}
	checkAll := func() {
		t.Helper()
		code, want := encode(s.Snapshot())
		same("/status", code, want)
		n, in, out := 1+rng.Intn(7), rng.Intn(units), units+rng.Intn(3)
		for _, q := range []struct {
			url     string
			n, unit int
		}{
			{"/debug/rounds", 16, -1},
			{fmt.Sprintf("/debug/rounds?n=%d", n), n, -1},
			{fmt.Sprintf("/debug/rounds?last=%d", n), n, -1},
			{"/debug/rounds?n=1", 1, -1},
			{fmt.Sprintf("/debug/rounds?n=%d&unit=%d", n, in), n, in},
			{fmt.Sprintf("/debug/rounds?n=%d&unit=%d", n, out), n, out},
		} {
			recs := s.recorder.Last(q.n, q.unit)
			if recs == nil {
				recs = []telemetry.RoundRecord{}
			}
			code, want := encode(recs)
			same(q.url, code, want)
		}
	}

	checkAll() // nothing recorded yet
	readings := make(power.Vector, units)
	reporting := make([]int, 0, units)
	for round := 0; round < 14; round++ {
		quiet := round >= 4 && round < 7 // everything quiet: Algorithm 3 restores
		for u := range readings {
			readings[u] = power.Watts(rng.Intn(1650)) / 10
			if quiet {
				readings[u] = 5
			}
		}
		reporting = reporting[:0]
		for u := 0; u < units; u++ {
			if round < 2 || u%16 != 3 { // one unit in 16 falls silent: stale, then dead
				reporting = append(reporting, u)
			}
		}
		if round == 10 {
			s.inheritedRounds.Store(4) // as a restore or a takeover leaves it
		}
		s.round(t, readings, reporting...)
		checkAll()
	}

	// Random records, straight into the ring.
	values := func() power.Watts {
		switch rng.Intn(8) {
		case 0:
			return power.Watts(rng.Intn(1650)) / 10
		case 1:
			return power.Watts(rng.Intn(3)) * 110
		case 2:
			return power.Watts(math.Copysign(0, -1))
		case 3:
			return power.Watts(rng.Float64() * 1e-7)
		case 4:
			return power.Watts(rng.Float64() * 1e22)
		case 5:
			return power.Watts(-rng.Float64() * 200)
		default:
			return power.Watts(55 + 110*rng.Float64())
		}
	}
	for round := 0; round < 12; round++ {
		rd := s.recorder.Next()
		rd.Reset()
		rd.Round = uint64(100 + round)
		rd.Time = time.Unix(1_700_000_000+int64(rng.Intn(1e6)), int64(rng.Intn(1e9))).UTC()
		rd.Interval = power.Seconds(values())
		rd.Elapsed = time.Duration(rng.Intn(1e7))
		rd.HasStats = rng.Intn(2) == 0
		rd.Stats = core.RoundStats{
			Timings:         core.StageTimings{Kalman: time.Duration(rng.Intn(1e6)), Priority: time.Duration(rng.Intn(1e6))},
			Restored:        rng.Intn(3) == 0,
			PriorityFlips:   rng.Intn(3),
			BudgetExhausted: rng.Intn(2) == 0,
			BudgetClamped:   rng.Intn(3) == 0,
			DirtyUnits:      rng.Intn(3) * units / 2,
			SkippedUnits:    rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			rd.Inherited = uint64(rng.Intn(int(rd.Round) + 1))
		}
		rd.BudgetW, rd.CapSumW = float64(values()), float64(values())
		rd.StaleUnits, rd.DeadUnits = rng.Intn(3), rng.Intn(3)
		withPrio, withHealth := rng.Intn(3) != 0, rng.Intn(3) != 0
		for u := 0; u < units; u++ {
			rd.Reading = append(rd.Reading, values())
			rd.Cap = append(rd.Cap, values())
			rd.PrevCap = append(rd.PrevCap, values())
			if withPrio {
				rd.Prio = append(rd.Prio, rng.Intn(2) == 0)
			}
			if withHealth {
				rd.Health = append(rd.Health, core.UnitHealth(rng.Intn(3)))
			}
			rd.Reason = append(rd.Reason, trace.Reason(rng.Intn(int(trace.ReasonClamp)+1)))
		}
		s.recorder.Commit()
		checkAll()
	}

	// What encoding/json refuses is refused, with its message, before a
	// byte of the view is written.
	refuse := func(what string, spoil func(rd *telemetry.Round)) {
		t.Helper()
		rd := s.recorder.Next()
		rd.Reset()
		rd.Round = 200
		for u := 0; u < units; u++ {
			rd.Reading = append(rd.Reading, 100)
			rd.Cap = append(rd.Cap, 100)
			rd.PrevCap = append(rd.PrevCap, 100)
			rd.Reason = append(rd.Reason, trace.ReasonNone)
		}
		spoil(rd)
		s.recorder.Commit()
		checkAll()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=1", nil))
		if rec.Code != 500 {
			t.Errorf("%s: /debug/rounds?n=1 answered %d", what, rec.Code)
		}
	}
	refuse("a NaN reading", func(rd *telemetry.Round) { rd.Reading[units-1] = power.Watts(math.NaN()) })
	refuse("an infinite cap delta", func(rd *telemetry.Round) { rd.PrevCap[7] = power.Watts(math.Inf(-1)) })
	refuse("an infinite budget", func(rd *telemetry.Round) { rd.BudgetW = math.Inf(1) })
	refuse("a year past 9999", func(rd *telemetry.Round) { rd.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) })
	s.imu.Lock()
	s.readings[units/2] = power.Watts(math.Inf(1))
	s.imu.Unlock()
	code, want := encode(s.Snapshot())
	if code != 500 {
		t.Fatalf("encoding/json took an infinite reading: %d", code)
	}
	same("/status", code, want)
}
