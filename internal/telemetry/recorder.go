package telemetry

import (
	"errors"
	"math/bits"
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
	// The budget audit's sums, in deciwatts as devices hold caps:
	// CapSumDW of the delivered caps; EnforcedDW of what agents enforce
	// once the round's push lands, the delivered cap where it landed, the
	// cap before elsewhere; DecidedDW of the manager's own caps floored
	// onto the grid, which delivery fitted (CapSumDW when delivery handed
	// out the manager's vector itself).
	CapSumDW, EnforcedDW, DecidedDW int64

	StaleUnits, DeadUnits int
	// Audit counts: PinAudited non-fresh units, PinViolations of them
	// delivered a cap other than the one their agent enforces,
	// ProvViolations units whose cap moved with no recorded reason.
	PinAudited, PinViolations, ProvViolations int

	// Columns, indexed by unit. Cap is the delivered cap and PrevCap the
	// previous round's; Reason has degraded_deliver already resolved.
	// Health is empty for a round decided without health.
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
	// Pushed masks (bit u&63 of word u>>6) the units whose agent took the
	// round's push; nil means every unit did. Held masks the units whose
	// Prev differs from the manager's own cap going into the round, which
	// delivery held off it; nil when there are none.
	Pushed, Held []uint64
	// Prio and Reasons are a core.DPS's Priorities() and Reasons(), nil
	// for any other policy: only a round with reasons is audited for caps
	// that moved without one.
	Prio    []bool
	Reasons []trace.Reason
	Budget  power.Watts
}

// Fill writes the round's interval, budget, the audit's cap sums,
// per-unit columns (Prio and Health stay empty for a nil input), HasStats
// and audit counts
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
	var missed int64
	for wi, w := range d.Pushed {
		for m := ^w; m != 0; m &= m - 1 { // the units the push missed
			u := wi<<6 | bits.TrailingZeros64(m)
			if u >= len(d.Delivered) {
				break
			}
			missed += power.Deciwatts(d.Enforced[u]) - power.Deciwatts(d.Delivered[u])
		}
	}
	own := len(d.Decided) == 0 || &d.Decided[0] == &d.Delivered[0]
	for u, c := range d.Delivered {
		r.CapSumDW += power.Deciwatts(c)
		if !own {
			r.DecidedDW += power.FloorDeciwatts(d.Decided[u])
		}
		moved := c != d.Prev[u]
		reason := trace.ReasonNone
		if d.Reasons != nil {
			reason = d.Reasons[u]
		}
		if c != d.Decided[u] && c != power.FromDeciwatts(power.FloorDeciwatts(d.Decided[u])) ||
			moved && reason == trace.ReasonNone && d.Held != nil && d.Held[u>>6]&(1<<(u&63)) != 0 {
			// Delivery-side pin or rescale overrode the manager (a cap it
			// only floored onto the grid is still the manager's), or let
			// go of a unit it held: the last mover for this unit was
			// delivery, whatever the manager thought it was doing.
			reason = trace.ReasonDegradedDeliver
		}
		r.Reason[u] = reason
		if len(r.Health) != 0 && r.Health[u] != core.HealthFresh {
			r.PinAudited++
			if c != d.Enforced[u] {
				r.PinViolations++
			}
		}
		if d.Reasons != nil && reason == trace.ReasonNone && moved {
			r.ProvViolations++
		}
	}
	if own {
		r.DecidedDW = r.CapSumDW
	}
	r.EnforcedDW = r.CapSumDW + missed
}

// OverBudgetDW is how far the round's largest audited sum, delivered,
// enforced or decided, lies above the budget's ⌊10·BudgetW⌋, in
// deciwatts: positive only for a round that broke Σcaps ≤ budget.
func (r *Round) OverBudgetDW() int64 {
	return max(r.CapSumDW, r.EnforcedDW, r.DecidedDW) - power.FloorDeciwatts(power.Watts(r.BudgetW))
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
// each with every unit's row (unit < 0) or that one unit's. Handler
// answers what encoding/json writes for these records, byte for byte,
// without building them.
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
// unit's rows. The held rounds' scalars and requested rows are copied
// under the recorder lock and formatted outside it, as RoundRecord's JSON
// with no RoundRecord built: the decision loop waits for a copy, never
// for formatting or I/O.
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
		views := r.views(n, unit)
		j := NewJSONBody()
		j.Raw("[")
		for i := range views {
			if i > 0 {
				j.Raw(",")
			}
			views[i].write(j)
		}
		j.Raw("]\n")
		j.Serve(w)
		release(views)
	})
}

// roundView is one held round as /debug/rounds shows it: the record's
// scalars and the requested rows of its columns, copied under the
// recorder lock and formatted outside it.
type roundView struct {
	Round
	first int  // unit number of the first copied row
	null  bool // unit= names no unit of the round: "units":null
}

// spareViews holds views whose columns a request left, for the next
// request's newest round to reuse.
var spareViews sync.Pool

// views copies up to n held rounds, newest first, each with every
// unit's row (unit < 0) or that one unit's. The first copy reuses a spare
// view's columns; release hands one back.
func (r *FlightRecorder) views(n, unit int) []roundView {
	views := make([]roundView, 1)
	if sp, ok := spareViews.Get().(*roundView); ok {
		views[0] = *sp
	}
	held := 0
	r.Each(n, func(rd *Round) {
		if held == len(views) {
			views = append(views, roundView{})
		}
		views[held].copyFrom(rd, unit)
		held++
	})
	return views[:held]
}

// release keeps the first view's columns for the next request; the rest
// are garbage, so a deep request does not pin n rounds' columns.
func release(views []roundView) {
	sp := views[:1][0]
	spareViews.Put(&sp)
}

// copyFrom makes v the view of rd for unit, reusing v's column memory.
func (v *roundView) copyFrom(rd *Round, unit int) {
	lo, hi := 0, len(rd.Cap)
	if unit >= 0 {
		lo, hi = min(unit, hi), min(unit+1, hi)
	}
	cols := v.Round
	v.Round = *rd
	v.Reading = append(cols.Reading[:0], rd.Reading[lo:hi]...)
	v.Cap = append(cols.Cap[:0], rd.Cap[lo:hi]...)
	v.PrevCap = append(cols.PrevCap[:0], rd.PrevCap[lo:hi]...)
	v.Prio = rows(cols.Prio, rd.Prio, lo, hi)
	v.Health = rows(cols.Health, rd.Health, lo, hi)
	v.Reason = append(cols.Reason[:0], rd.Reason[lo:hi]...)
	v.first, v.null = lo, unit >= len(rd.Cap)
}

// rows copies src[lo:hi] into dst's memory; an empty column stays empty.
func rows[T any](dst, src []T, lo, hi int) []T {
	if len(src) == 0 {
		return dst[:0]
	}
	return append(dst[:0], src[lo:hi]...)
}

// write appends the view as Round.Record(unit)'s JSON, field for field,
// failing j where encoding/json would refuse the record.
func (v *roundView) write(j *JSONBody) {
	t := v.Stats.Timings
	b := strconv.AppendUint(append(j.buf, `{"round":`...), v.Round.Round, 10)
	tm, err := v.Time.MarshalJSON()
	if err != nil {
		j.fail(errors.New("json: error calling MarshalJSON for type time.Time: " + err.Error()))
	}
	b = append(append(append(b, `,"time":`...), tm...), `,"interval_s":`...)
	b = j.float(b, float64(v.Interval))
	b = j.float(append(b, `,"stage_seconds":{"kalman_s":`...), t.Kalman.Seconds())
	b = j.float(append(b, `,"stateless_s":`...), t.Stateless.Seconds())
	b = j.float(append(b, `,"priority_s":`...), t.Priority.Seconds())
	b = j.float(append(b, `,"readjust_s":`...), t.Readjust.Seconds())
	b = j.float(append(b, `,"total_s":`...), v.Elapsed.Seconds())
	b = append(b, '}')
	if v.Stats.Restored {
		b = append(b, `,"restored":true`...)
	}
	b = appendNonZero(b, `,"priority_flips":`, v.Stats.PriorityFlips)
	if v.Stats.BudgetExhausted {
		b = append(b, `,"budget_exhausted":true`...)
	}
	if v.Stats.BudgetClamped {
		b = append(b, `,"budget_clamped":true`...)
	}
	b = appendNonZero(b, `,"stale_units":`, v.StaleUnits)
	b = appendNonZero(b, `,"dead_units":`, v.DeadUnits)
	b = appendNonZero(b, `,"dirty_units":`, v.Stats.DirtyUnits)
	b = appendNonZero(b, `,"skipped_units":`, v.Stats.SkippedUnits)
	if v.Inherited != 0 {
		if up := v.Round.Round - v.Inherited; up != 0 {
			b = strconv.AppendUint(append(b, `,"uptime_rounds":`...), up, 10)
		}
		if v.Round.Round != 0 {
			b = strconv.AppendUint(append(b, `,"state_age_rounds":`...), v.Round.Round, 10)
		}
	}
	b = j.float(append(b, `,"budget_w":`...), v.BudgetW)
	b = j.float(append(b, `,"cap_sum_w":`...), v.CapSumW)
	if v.null {
		j.buf = append(b, `,"units":null}`...)
		return
	}
	b = append(b, `,"units":[`...)
	for i := range v.Cap {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"unit":`...), int64(v.first+i), 10)
		b = j.float(append(b, `,"reading_w":`...), float64(v.Reading[i]))
		b = j.float(append(b, `,"cap_w":`...), float64(v.Cap[i]))
		b = j.float(append(b, `,"cap_delta_w":`...), float64(v.Cap[i]-v.PrevCap[i]))
		if len(v.Prio) != 0 && v.Prio[i] {
			b = append(b, `,"high_priority":true`...)
		}
		if len(v.Health) != 0 && v.Health[i] != core.HealthFresh {
			b = appendJSONString(append(b, `,"health":`...), v.Health[i].String())
		}
		if v.Reason[i] != trace.ReasonNone {
			b = appendJSONString(append(b, `,"reason":`...), v.Reason[i].String())
		}
		b = append(b, '}')
	}
	j.buf = append(b, "]}"...)
}

// appendNonZero appends key and v unless v is 0 (omitempty).
func appendNonZero(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}
