package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dps/internal/trace"
)

// StageSeconds is the wall time one decision round spent in each pipeline
// stage of the paper's Figure 3 (zero for managers without that stage).
type StageSeconds struct {
	Kalman    float64 `json:"kalman_s"`
	Stateless float64 `json:"stateless_s"`
	Priority  float64 `json:"priority_s"`
	Readjust  float64 `json:"readjust_s"`
	Total     float64 `json:"total_s"`
}

// UnitRecord is one unit's view of a decision round: what it reported,
// what it was assigned, and how the assignment moved.
type UnitRecord struct {
	Unit         int     `json:"unit"`
	ReadingW     float64 `json:"reading_w"`
	CapW         float64 `json:"cap_w"`
	CapDeltaW    float64 `json:"cap_delta_w"`
	HighPriority bool    `json:"high_priority,omitempty"`
	// Health is the unit's degraded state ("stale" or "dead"); empty for a
	// fresh unit or when health tracking is disabled.
	Health string `json:"health,omitempty"`
	// Reason names the module that last changed this unit's cap in the
	// round ("mimd_cut", "readjust_grant", "degraded_deliver", ...); empty
	// when the cap did not move or the manager records no provenance.
	Reason string `json:"reason,omitempty"`
}

// RoundRecord is one entry of the decision flight recorder: everything
// needed to answer "why did unit U get capped at C in round R" after the
// fact.
type RoundRecord struct {
	Round           uint64       `json:"round"`
	Time            time.Time    `json:"time"`
	IntervalS       float64      `json:"interval_s"`
	Stages          StageSeconds `json:"stage_seconds"`
	Restored        bool         `json:"restored,omitempty"`
	PriorityFlips   int          `json:"priority_flips,omitempty"`
	BudgetExhausted bool         `json:"budget_exhausted,omitempty"`
	BudgetClamped   bool         `json:"budget_clamped,omitempty"`
	StaleUnits      int          `json:"stale_units,omitempty"`
	DeadUnits       int          `json:"dead_units,omitempty"`
	// Work counters: how many units the round's snapshot marked changed
	// and how many units the controller skipped under the settled-unit
	// contract. Populated every DPS round; zero (omitted) for other
	// policies.
	DirtyUnits   int `json:"dirty_units,omitempty"`
	SkippedUnits int `json:"skipped_units,omitempty"`
	// UptimeRounds/StateAgeRounds split the round counter across process
	// generations: uptime is rounds this process decided, state age counts
	// rounds inherited through a snapshot restore or standby takeover too.
	// Omitted (equal to Round) on processes that never inherited state.
	UptimeRounds   uint64       `json:"uptime_rounds,omitempty"`
	StateAgeRounds uint64       `json:"state_age_rounds,omitempty"`
	BudgetW        float64      `json:"budget_w"`
	CapSumW        float64      `json:"cap_sum_w"`
	Units          []UnitRecord `json:"units"`
}

// FlightRecorder is a fixed-size ring buffer of decision records. Appends
// never allocate once the ring is full; the oldest record is evicted. It
// is safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []RoundRecord
	next  int    // index the next Append writes
	total uint64 // lifetime appends
}

// DefaultFlightRecorderSize keeps ~4 minutes of history at a one-second
// decision loop.
const DefaultFlightRecorderSize = 256

// NewFlightRecorder returns a recorder holding the last `capacity` rounds
// (DefaultFlightRecorderSize if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderSize
	}
	return &FlightRecorder{buf: make([]RoundRecord, 0, capacity)}
}

// Append records one round, evicting the oldest when full.
func (r *FlightRecorder) Append(rec RoundRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
}

// Len returns the number of records currently held.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the lifetime number of appends (>= Len once evicting).
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n records, newest first. n <= 0 means all held.
func (r *FlightRecorder) Last(n int) []RoundRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := len(r.buf)
	if held == 0 {
		return nil
	}
	if n <= 0 || n > held {
		n = held
	}
	out := make([]RoundRecord, 0, n)
	for i := 0; i < n; i++ {
		// next-1 is the newest; walk backwards through the ring.
		idx := (r.next - 1 - i + held) % held
		out = append(out, r.buf[idx])
	}
	return out
}

// Handler serves the recorder as JSON for mounting at GET /debug/rounds.
// The optional query parameter n (canonical; last is an accepted alias)
// limits the response to the newest n records (default 16); the optional
// unit parameter narrows each record's Units to that one unit, so a
// single unit's history can be pulled without shipping every other
// unit's rows to the client.
func (r *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, ok := trace.CountParam(w, req, 16)
		if !ok {
			return
		}
		unit := -1
		if q := req.URL.Query().Get("unit"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "unit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			unit = v
		}
		recs := r.Last(n)
		if unit >= 0 {
			// Re-slicing the returned records' Units headers never writes
			// the ring's backing arrays.
			for i := range recs {
				if unit < len(recs[i].Units) {
					recs[i].Units = recs[i].Units[unit : unit+1]
				} else {
					recs[i].Units = nil
				}
			}
		}
		if recs == nil {
			recs = []RoundRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(recs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
