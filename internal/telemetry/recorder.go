package telemetry

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/trace"
)

// Round is the in-memory record of one decision round, described once by
// Fill: the daemon's DecideOnce fills a flight-recorder ring slot, the
// simulator's step (pair and batch experiments alike) a record it
// retains. Every inspection surface is a view of it: /debug/rounds
// renders RoundRecord JSON from it on read, /debug/why reads one column
// entry per held round, /status takes its last-round fields from the
// newest one, the black box encodes its on-disk record straight from it,
// and the watchdog audits its counts. Per-unit data is held as columns
// (one slice per field), which a re-filled record reuses, so a warm
// round allocates nothing for observation.
type Round struct {
	Round    uint64
	Time     time.Time // start of the manager call
	Interval power.Seconds
	Elapsed  time.Duration // wall time of the manager call
	// Stats is the controller's own account of the round. HasStats marks
	// a core.DPS manager, the one kind that has stats, priorities and
	// cap provenance; for any other policy Stats is zero, Prio empty and
	// the only Reason ever set is degraded_deliver.
	Stats    core.RoundStats
	HasStats bool
	// Inherited is how many of Round's rounds a previous process
	// generation ran (snapshot restore or standby takeover); 0 if none.
	Inherited uint64
	BudgetW   float64
	CapSumW   float64 // sum of the delivered caps

	StaleUnits, DeadUnits int
	// Audit counts: PinAudited non-fresh units, PinViolations of them
	// delivered a cap other than the one their agent enforces,
	// ProvViolations units whose cap moved with no recorded reason.
	PinAudited, PinViolations, ProvViolations int

	// Columns, indexed by unit. Cap is the delivered cap and PrevCap the
	// previous round's; Reason has degraded_deliver already resolved.
	// Health is empty while health tracking is off.
	Reading, Cap, PrevCap power.Vector
	Prio                  []bool
	Health                []core.UnitHealth
	Reason                []trace.Reason
}

// Reset clears the record for a new round, keeping only the columns'
// memory, which Fill re-fills.
func (r *Round) Reset() {
	*r = Round{
		Reading: r.Reading[:0],
		Cap:     r.Cap[:0],
		PrevCap: r.PrevCap[:0],
		Prio:    r.Prio[:0],
		Health:  r.Health[:0],
		Reason:  r.Reason[:0],
	}
}

// Decision is one round as the round engine's Decide returns it
// (internal/engine), the input Fill describes the round from.
type Decision struct {
	// Snap is the snapshot the manager decided on.
	Snap core.Snapshot
	// Decided is the manager's vector and Delivered what went out. They
	// differ only where delivery overrode a health-blind policy, which is
	// what earns a unit the degraded_deliver reason.
	Decided, Delivered power.Vector
	// Prev is the previous round's delivered vector; Enforced is what
	// each unit's agent was enforcing going in, which non-fresh units are
	// audited against (it may be nil when Snap.Health is).
	Prev, Enforced power.Vector
	// Prio and Reasons are a core.DPS's Priorities() and Reasons(), nil
	// for any other policy: only a round with reasons is audited for caps
	// that moved without one.
	Prio    []bool
	Reasons []trace.Reason
	Budget  power.Watts
}

// Fill writes the round's interval, budget, cap sum, per-unit columns
// (Prio and Health stay empty for a nil input), HasStats and audit counts
// into a record Reset for the round, in one pass over the units. The
// caller sets the rest: Round, Time, Elapsed, Stats, Inherited and the
// health tallies.
func (r *Round) Fill(d Decision) {
	r.Interval, r.HasStats = d.Snap.Interval, d.Reasons != nil
	r.BudgetW = float64(d.Budget)
	r.CapSumW = float64(d.Delivered.Sum())
	r.Reading = append(r.Reading, d.Snap.Power...)
	r.Cap = append(r.Cap, d.Delivered...)
	r.PrevCap = append(r.PrevCap, d.Prev...)
	r.Prio = append(r.Prio, d.Prio...)
	r.Health = append(r.Health, d.Snap.Health...)
	r.Reason = slices.Grow(r.Reason, len(d.Delivered))[:len(d.Delivered)]
	for u, c := range d.Delivered {
		reason := trace.ReasonNone
		if d.Reasons != nil {
			reason = d.Reasons[u]
		}
		if c != d.Decided[u] {
			// Delivery-side pin or rescale overrode the manager: the last
			// mover for this unit was delivery, whatever the manager
			// thought it was doing.
			reason = trace.ReasonDegradedDeliver
		}
		r.Reason[u] = reason
		if len(r.Health) != 0 && r.Health[u] != core.HealthFresh {
			r.PinAudited++
			if c != d.Enforced[u] {
				r.PinViolations++
			}
		}
		if d.Reasons != nil && reason == trace.ReasonNone && c != d.Prev[u] {
			r.ProvViolations++
		}
	}
}

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

// RoundRecord is the JSON shape of one flight-recorder entry, rendered
// from a Round on read: everything needed to answer "why did unit U get
// capped at C in round R" after the fact.
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

// Unit renders unit u's row.
func (r *Round) Unit(u int) UnitRecord {
	ur := UnitRecord{
		Unit:      u,
		ReadingW:  float64(r.Reading[u]),
		CapW:      float64(r.Cap[u]),
		CapDeltaW: float64(r.Cap[u] - r.PrevCap[u]),
	}
	if len(r.Prio) != 0 {
		ur.HighPriority = r.Prio[u]
	}
	if len(r.Health) != 0 && r.Health[u] != core.HealthFresh {
		ur.Health = r.Health[u].String()
	}
	if r.Reason[u] != trace.ReasonNone {
		ur.Reason = r.Reason[u].String()
	}
	return ur
}

// Record renders the round's JSON shape: every unit's row when unit < 0,
// otherwise that unit's row alone (none when it is out of range).
func (r *Round) Record(unit int) RoundRecord {
	t := r.Stats.Timings
	rec := RoundRecord{
		Round:     r.Round,
		Time:      r.Time,
		IntervalS: float64(r.Interval),
		Stages: StageSeconds{
			Kalman:    t.Kalman.Seconds(),
			Stateless: t.Stateless.Seconds(),
			Priority:  t.Priority.Seconds(),
			Readjust:  t.Readjust.Seconds(),
			Total:     r.Elapsed.Seconds(),
		},
		Restored:        r.Stats.Restored,
		PriorityFlips:   r.Stats.PriorityFlips,
		BudgetExhausted: r.Stats.BudgetExhausted,
		BudgetClamped:   r.Stats.BudgetClamped,
		StaleUnits:      r.StaleUnits,
		DeadUnits:       r.DeadUnits,
		DirtyUnits:      r.Stats.DirtyUnits,
		SkippedUnits:    r.Stats.SkippedUnits,
		BudgetW:         r.BudgetW,
		CapSumW:         r.CapSumW,
	}
	if r.Inherited != 0 {
		rec.UptimeRounds = r.Round - r.Inherited
		rec.StateAgeRounds = r.Round
	}
	switch {
	case unit < 0:
		rec.Units = make([]UnitRecord, len(r.Cap))
		for u := range rec.Units {
			rec.Units[u] = r.Unit(u)
		}
	case unit < len(r.Cap):
		rec.Units = []UnitRecord{r.Unit(unit)}
	}
	return rec
}

// FlightRecorder is a fixed-size ring of decision rounds. Its slots are
// retained and re-filled on wrap, so recording never allocates once the
// ring has wrapped. One goroutine (the decision loop) writes — fill
// Next, then Commit — and any number read concurrently.
type FlightRecorder struct {
	mu sync.Mutex
	// buf has one slot more than the capacity: buf[next] is the slot being
	// filled, invisible to readers until Commit, so the writer fills it
	// without the lock and never under a reader.
	buf   []Round
	next  int
	total uint64 // lifetime commits
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
	return &FlightRecorder{buf: make([]Round, capacity+1)}
}

// Next returns the slot the next Commit publishes, for the writer to
// fill. It still holds the round it recorded a lap ago; Round.Reset
// clears it while keeping the columns' memory.
func (r *FlightRecorder) Next() *Round { return &r.buf[r.next] }

// Commit publishes the slot Next returned, evicting the oldest round
// when full. The slot stays valid for the writer to read until the ring
// laps it.
func (r *FlightRecorder) Commit() {
	r.mu.Lock()
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// held returns the number of published rounds. Caller holds mu.
func (r *FlightRecorder) held() int {
	return int(min(r.total, uint64(len(r.buf)-1)))
}

// Len returns the number of rounds currently held.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held()
}

// Total returns the lifetime number of commits (>= Len once evicting).
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Each calls fn on up to n held rounds, newest first (n <= 0 means all).
// It holds the recorder lock throughout, which is what keeps the slots
// stable: fn must copy what it needs and return, not retain the pointer
// or do slow work.
func (r *FlightRecorder) Each(n int, fn func(*Round)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if held := r.held(); n <= 0 || n > held {
		n = held
	}
	for i := 1; i <= n; i++ {
		fn(&r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
}

// Last renders up to n rounds, newest first (n <= 0 means all held),
// each with every unit's row (unit < 0) or that one unit's.
func (r *FlightRecorder) Last(n, unit int) []RoundRecord {
	var out []RoundRecord
	r.Each(n, func(rd *Round) { out = append(out, rd.Record(unit)) })
	return out
}

// Handler serves the recorder as JSON for mounting at GET /debug/rounds.
// The optional query parameter n (canonical; last is an accepted alias)
// limits the response to the newest n records (default 16); the optional
// unit parameter narrows each record's Units to that one unit, so a
// single unit's history can be pulled without rendering every other
// unit's rows. Rounds are rendered under the recorder lock and encoded
// outside it: the decision loop never waits on JSON.
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
		recs := r.Last(n, unit)
		if recs == nil {
			recs = []RoundRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(recs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
