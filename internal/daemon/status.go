package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// Status is the controller's observable state, served as JSON for
// dashboards and scrapers. Every deployed power manager needs this view:
// what each socket reported, what cap it was assigned, and whether the
// budget holds.
type Status struct {
	Policy string `json:"policy"`
	Units  int    `json:"units"`
	Agents int    `json:"agents"`
	Rounds uint64 `json:"rounds"`
	// UptimeRounds counts rounds decided by this process; StateAgeRounds
	// counts rounds the controller state has accumulated, including rounds
	// inherited through a snapshot restore or standby takeover. On a cold
	// boot the three round counters coincide.
	UptimeRounds   uint64    `json:"uptime_rounds"`
	StateAgeRounds uint64    `json:"state_age_rounds"`
	BudgetW        float64   `json:"budget_w"`
	CapSumW        float64   `json:"cap_sum_w"`
	Readings       []float64 `json:"readings_w"`
	Caps           []float64 `json:"caps_w"`
	Priority       []bool    `json:"high_priority,omitempty"`
	Restored       bool      `json:"restored,omitempty"`
	// Health is the per-unit degraded-mode state ("fresh"/"stale"/"dead").
	Health     []string `json:"health,omitempty"`
	StaleUnits int      `json:"stale_units,omitempty"`
	DeadUnits  int      `json:"dead_units,omitempty"`
	// Work counters from the most recent decision round: units the
	// snapshot marked changed, units the controller skipped as settled,
	// and the dirty fraction. Populated every round; omitted when zero.
	DirtyUnits   int     `json:"dirty_units,omitempty"`
	SkippedUnits int     `json:"skipped_units,omitempty"`
	DirtyFrac    float64 `json:"dirty_frac,omitempty"`
	// AlertsFiring is the number of watchdog rules currently firing;
	// omitted (0) when the watchdog is disabled or everything is healthy.
	AlertsFiring int `json:"alerts_firing,omitempty"`
}

// Snapshot assembles the current Status. It reads only the server's own
// round caches, the budget it republishes, and the newest round record,
// never the controller: a /status scrape may overlap a decision round or
// a standby's followed budget move, and the controller's accessors are
// not synchronized. GET /status answers what encoding/json writes for
// it, byte for byte, without building it.
func (s *Server) Snapshot() Status {
	var v statusView
	s.status(&v)
	st := v.Status
	st.Readings, st.Caps = toFloats(v.readings), toFloats(v.caps)
	if len(v.prio) != 0 {
		st.Priority = v.prio
	}
	st.Health = make([]string, len(v.health))
	for u, h := range v.health {
		st.Health[u] = h.String()
	}
	return st
}

// statusView is what /status shows, as copied from the server: Status's
// scalars, and the per-unit columns in their own types, rendered to
// Status's fields only when written.
type statusView struct {
	Status         // its slices stay nil
	readings, caps power.Vector
	prio           []bool
	health         []core.UnitHealth
}

// status copies the server's observable state into v, reusing v's
// columns: each source under its own lock, held for a copy only.
func (s *Server) status(v *statusView) {
	s.imu.Lock()
	v.readings = append(v.readings[:0], s.readings...)
	s.imu.Unlock()
	rounds := s.rounds.Load()

	var last core.RoundStats
	v.prio = v.prio[:0]
	s.recorder.Each(1, func(rec *telemetry.Round) {
		v.prio = append(v.prio, rec.Prio...)
		last = rec.Stats
	})

	s.mu.Lock()
	agents := len(s.conns)
	v.caps = append(v.caps[:0], s.eng.Prev...)
	v.health = append(v.health[:0], s.health...)
	s.mu.Unlock()

	var stale, dead int
	for _, h := range v.health {
		switch h {
		case core.HealthStale:
			stale++
		case core.HealthDead:
			dead++
		}
	}
	v.Status = Status{
		Policy:         s.dps.Name(),
		Units:          s.cfg.Units,
		Agents:         agents,
		Rounds:         rounds,
		UptimeRounds:   rounds - s.inheritedRounds.Load(),
		StateAgeRounds: rounds,
		BudgetW:        math.Float64frombits(s.budgetW.Load()),
		CapSumW:        float64(v.caps.Sum()),
		Restored:       last.Restored,
		StaleUnits:     stale,
		DeadUnits:      dead,
		DirtyUnits:     last.DirtyUnits,
		SkippedUnits:   last.SkippedUnits,
		DirtyFrac:      last.DirtyFrac,
		AlertsFiring:   s.watcher.FiringCount(),
	}
}

// write appends v as Snapshot()'s Status encodes, byte for byte.
func (v *statusView) write(j *telemetry.JSONBody) {
	j.Raw(`{"policy":`)
	j.String(v.Policy)
	j.Raw(`,"units":`)
	j.Int(v.Units)
	j.Raw(`,"agents":`)
	j.Int(v.Agents)
	j.Raw(`,"rounds":`)
	j.Uint(v.Rounds)
	j.Raw(`,"uptime_rounds":`)
	j.Uint(v.UptimeRounds)
	j.Raw(`,"state_age_rounds":`)
	j.Uint(v.StateAgeRounds)
	j.Raw(`,"budget_w":`)
	j.Float(v.BudgetW)
	j.Raw(`,"cap_sum_w":`)
	j.Float(v.CapSumW)
	j.Raw(`,"readings_w":`)
	telemetry.FloatArray(j, v.readings)
	j.Raw(`,"caps_w":`)
	telemetry.FloatArray(j, v.caps)
	if len(v.prio) != 0 {
		j.Raw(`,"high_priority":`)
		j.BoolArray(v.prio)
	}
	if v.Restored {
		j.Raw(`,"restored":true`)
	}
	if len(v.health) != 0 {
		j.Raw(`,"health":`)
		telemetry.StringArray(j, v.health, core.UnitHealth.String)
	}
	for _, f := range []struct {
		key string
		n   int
	}{{`,"stale_units":`, v.StaleUnits}, {`,"dead_units":`, v.DeadUnits}, {`,"dirty_units":`, v.DirtyUnits}, {`,"skipped_units":`, v.SkippedUnits}} {
		if f.n != 0 {
			j.Raw(f.key)
			j.Int(f.n)
		}
	}
	if v.DirtyFrac != 0 {
		j.Raw(`,"dirty_frac":`)
		j.Float(v.DirtyFrac)
	}
	if v.AlertsFiring != 0 {
		j.Raw(`,"alerts_firing":`)
		j.Int(v.AlertsFiring)
	}
	j.Raw("}\n")
}

func toFloats(v power.Vector) []float64 {
	out := make([]float64, len(v))
	for i, w := range v {
		out[i] = float64(w)
	}
	return out
}

// WhyRecord is one answer row of GET /debug/why: a round in which the
// queried unit's cap was changed by some module, and why.
type WhyRecord struct {
	Round     uint64    `json:"round"`
	Time      time.Time `json:"time"`
	Reason    string    `json:"reason"`
	CapW      float64   `json:"cap_w"`
	CapDeltaW float64   `json:"cap_delta_w"`
	ReadingW  float64   `json:"reading_w"`
	Health    string    `json:"health,omitempty"`
}

// Why answers "why did unit u's cap change?" from the flight recorder:
// the newest-first list of recorded rounds in which some module moved the
// unit's cap (or pinned it against the manager), each with its provenance
// reason. n <= 0 scans every held round. It reads one column entry per
// round; no other unit's row is rendered.
func (s *Server) Why(u, n int) []WhyRecord {
	out := []WhyRecord{}
	s.recorder.Each(n, func(rec *telemetry.Round) {
		if u >= len(rec.Reason) || rec.Reason[u] == trace.ReasonNone {
			return
		}
		ur := rec.Unit(u)
		out = append(out, WhyRecord{
			Round:     rec.Round,
			Time:      rec.Time,
			Reason:    ur.Reason,
			CapW:      ur.CapW,
			CapDeltaW: ur.CapDeltaW,
			ReadingW:  ur.ReadingW,
			Health:    ur.Health,
		})
	})
	return out
}

// StatusHandler returns the daemon's HTTP mux:
//
//	GET /status        controller state as JSON
//	GET /metrics       the telemetry registry in Prometheus text format
//	GET /healthz       200 once at least one decision round has run
//	GET /alerts        watchdog alert states as JSON ([] when disabled)
//	GET /debug/rounds  the decision flight recorder as JSON (?n=K&unit=U;
//	                   last= is an accepted alias for n=)
//	GET /debug/trace   recorded spans as Chrome trace_event JSON (?n=N;
//	                   last= is an accepted alias for n=)
//	GET /debug/why     cap-change provenance for one unit (?unit=K&n=N)
//	GET /debug/series  embedded metric history as JSON (?name=K&last=5m;
//	                   404 when the series store is disabled)
//
// Returning the concrete mux lets the daemon binary mount extra debug
// handlers (net/http/pprof) on the same listener.
func (s *Server) StatusHandler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		v := s.statusSpare.Swap(nil)
		if v == nil {
			v = new(statusView)
		}
		defer s.statusSpare.Store(v)
		s.status(v)
		j := telemetry.NewJSONBody()
		v.write(j)
		j.Serve(w)
	})
	mux.Handle("GET /metrics", s.tel.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Rounds() == 0 {
			http.Error(w, "no decision rounds yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /alerts", s.watcher.Handler())
	mux.Handle("GET /debug/rounds", s.recorder.Handler())
	mux.Handle("GET /debug/trace", s.tracer.Handler())
	if s.store != nil {
		mux.Handle("GET /debug/series", s.store.Handler(func() time.Time { return s.now() }))
	}
	mux.HandleFunc("GET /debug/why", func(w http.ResponseWriter, r *http.Request) {
		u, err := strconv.Atoi(r.URL.Query().Get("unit"))
		if err != nil || u < 0 || u >= s.cfg.Units {
			http.Error(w, fmt.Sprintf("unit must be an integer in [0,%d)", s.cfg.Units), http.StatusBadRequest)
			return
		}
		n := 0 // all held rounds
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.Why(u, n)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
